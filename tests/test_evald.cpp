// Evaluation-service tests: canonical cell codec, content-addressed
// store (persistence, torn-tail recovery, model-version invalidation),
// CRC frame edge cases over a real socket, and end-to-end bit-identical
// caching -- a cached CellResult must be byte-equal to a freshly
// computed one for every cell kind, including faulted runs.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "eval/cell.hpp"
#include "evald/checksum.hpp"
#include "evald/client.hpp"
#include "evald/protocol.hpp"
#include "evald/server.hpp"
#include "evald/store.hpp"
#include "fault/plan.hpp"
#include "../tools/cell_args.hpp"

namespace pdc::evald {
namespace {

using eval::AppCell;
using eval::CellResult;
using eval::CellSpec;
using eval::CellStatus;
using eval::CellType;
using eval::SchedCell;
using eval::TplCell;

// Unique throwaway paths; sockets must stay under sun_path's ~104 bytes.
std::string scratch_path(const std::string& tag) {
  static std::atomic<int> counter{0};
  return "/tmp/pdc_evald_" + std::to_string(::getpid()) + "_" + tag + "_" +
         std::to_string(counter.fetch_add(1));
}

TplCell faulted_tpl_cell() {
  TplCell c;
  c.tool = mp::ToolKind::P4;
  c.platform = host::PlatformId::SunEthernet;
  c.primitive = eval::Primitive::SendRecv;
  c.bytes = 2048;
  c.procs = 2;
  c.faults = fault::FaultPlan::uniform(0.03, 0.01, 0.01, 0.0, sim::microseconds(200), 0xE11A);
  return c;
}

AppCell small_app_cell() {
  AppCell c;
  c.tool = mp::ToolKind::Pvm;
  c.platform = host::PlatformId::AlphaFddi;
  c.app = eval::AppKind::Fft2d;
  c.procs = 4;
  return c;
}

SchedCell small_sched_cell() {
  SchedCell c;
  c.platform = host::PlatformId::ClusterFlat;
  c.nodes = 32;
  c.njobs = 8;
  c.seed = 7;
  c.faults = fault::FaultPlan::uniform(0.02);
  return c;
}

/// A spec that reliably throws ("Cluster: need at least one node"), for
/// the negative-cache paths.
SchedCell infeasible_sched_cell() {
  SchedCell c;
  c.platform = host::PlatformId::ClusterFlat;
  c.nodes = 0;
  c.njobs = 4;
  return c;
}

/// A cheap Tpl cell the store fixture inserts and then tombstones.
TplCell tombstoned_tpl_cell() {
  TplCell c;
  c.tool = mp::ToolKind::Express;
  c.platform = host::PlatformId::Sp1Switch;
  c.primitive = eval::Primitive::Broadcast;
  c.bytes = 512;
  c.procs = 4;
  return c;
}

std::vector<CellSpec> sample_specs() {
  return {CellSpec::of(faulted_tpl_cell()), CellSpec::of(small_app_cell()),
          CellSpec::of(small_sched_cell())};
}

// -- CRC32 ------------------------------------------------------------------

std::span<const std::byte> bytes_of(const char* s) {
  return {reinterpret_cast<const std::byte*>(s), std::strlen(s)};
}

TEST(Crc32, MatchesIeeeCheckValue) {
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, DetectsSingleBitFlips) {
  mp::Bytes data(256);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = std::byte(i * 7 + 1);
  const std::uint32_t good = crc32(data);
  for (std::size_t i = 0; i < data.size(); i += 37) {
    mp::Bytes flipped = data;
    flipped[i] ^= std::byte{0x10};
    EXPECT_NE(crc32(flipped), good) << "flip at byte " << i;
  }
}

// -- canonical codec --------------------------------------------------------

TEST(CellCodec, SpecRoundTripsForEveryKind) {
  for (const CellSpec& spec : sample_specs()) {
    const auto bytes = eval::encode_spec(spec);
    const auto back = eval::decode_spec(bytes);
    ASSERT_TRUE(back.has_value()) << to_string(spec.type);
    EXPECT_EQ(eval::encode_spec(*back), bytes) << to_string(spec.type);
  }
}

TEST(CellCodec, DecodeRejectsTruncationAndTrailingBytes) {
  const auto bytes = eval::encode_spec(CellSpec::of(faulted_tpl_cell()));
  for (std::size_t cut : {std::size_t{0}, std::size_t{1}, bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_FALSE(eval::decode_spec({bytes.data(), cut}).has_value()) << cut;
  }
  auto longer = bytes;
  longer.push_back(std::byte{0});
  EXPECT_FALSE(eval::decode_spec(longer).has_value());
}

TEST(CellCodec, ResultRoundTripsBitIdentically) {
  for (const CellSpec& spec : sample_specs()) {
    const CellResult result = eval::run_cell(spec);
    const auto bytes = eval::encode_result(result);
    const auto back = eval::decode_result(bytes);
    ASSERT_TRUE(back.has_value()) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(*back), bytes) << to_string(spec.type);
    EXPECT_TRUE(*back == result) << to_string(spec.type);
  }
}

TEST(CellCodec, KeyIsStableAndVersionSensitive) {
  const auto bytes = eval::encode_spec(CellSpec::of(faulted_tpl_cell()));
  EXPECT_EQ(eval::cell_key(bytes), eval::cell_key(bytes));
  EXPECT_NE(eval::cell_key(bytes, eval::kModelVersion),
            eval::cell_key(bytes, eval::kModelVersion + 1));

  auto other_cell = faulted_tpl_cell();
  other_cell.bytes += 1;
  const auto other = eval::encode_spec(CellSpec::of(other_cell));
  EXPECT_NE(eval::cell_key(bytes), eval::cell_key(other));
}

TEST(CellCodec, BoolBytesOtherThanZeroOrOneAreRejected) {
  // Decode must be the inverse of encode: a bool byte of 2 read as true
  // would re-encode as 1, and key the same cell under a different address.
  auto sched = small_sched_cell();
  sched.policy.backfill = true;
  auto spec = eval::encode_spec(CellSpec::of(sched));
  LookupRequest lookup;
  lookup.specs = {CellSpec::of(sched)};
  auto lookup_bytes = encode_lookup(lookup);
  auto invalidate_bytes = encode_invalidate(InvalidateRequest{});
  ASSERT_TRUE(eval::decode_spec(spec).has_value());
  ASSERT_TRUE(decode_lookup(lookup_bytes).has_value());
  ASSERT_TRUE(decode_invalidate(invalidate_bytes).has_value());

  // Sched layout: type, platform, nodes i32, rate f64, njobs i32, users
  // i32, seed u64, then the backfill byte.
  const std::size_t backfill_at = 1 + 1 + 4 + 8 + 4 + 4 + 8;
  ASSERT_EQ(spec[backfill_at], std::byte{1});
  spec[backfill_at] = std::byte{2};
  EXPECT_FALSE(eval::decode_spec(spec).has_value());
  lookup_bytes[1] = std::byte{7};  // warm, after the type byte
  EXPECT_FALSE(decode_lookup(lookup_bytes).has_value());
  invalidate_bytes[1] = std::byte{2};  // all
  EXPECT_FALSE(decode_invalidate(invalidate_bytes).has_value());
}

// -- seeded mutation of every decoder ----------------------------------------
//
// Valid encodings of every spec kind, result kind and protocol message are
// mutated (bit flips, byte overwrites, truncations, insertions and inflated
// length or count prefixes) with a fixed seed and a fixed budget. No
// decoder may throw or read out of bounds (the sanitizer build checks the
// latter), and every accepted input must re-encode to exactly its own
// bytes: one canonical byte string per value.

using Bytes = std::vector<std::byte>;

struct CodecCase {
  const char* name;
  Bytes bytes;
  /// Decode, then re-encode; nullopt when the decoder rejects.
  std::function<std::optional<Bytes>(std::span<const std::byte>)> round_trip;
};

template <class Decode, class Encode>
auto round_trip(Decode decode, Encode encode) {
  return [decode, encode](std::span<const std::byte> in) -> std::optional<Bytes> {
    auto v = decode(in);
    if (!v) return std::nullopt;
    return encode(*v);
  };
}

std::vector<CodecCase> codec_corpus() {
  const auto spec_rt = round_trip(eval::decode_spec, eval::encode_spec);
  const auto result_rt = round_trip(eval::decode_result, eval::encode_result);

  auto rich_tpl = faulted_tpl_cell();
  rich_tpl.faults.overrides.push_back({0, 1, fault::LinkFaults{0.5, 0.0, 0.25, 0.0, {}}});
  rich_tpl.faults.flaps.push_back({1, -1, sim::TimePoint{100}, sim::TimePoint{9000}});
  auto no_backfill = small_sched_cell();
  no_backfill.policy.backfill = false;
  const std::vector<CellSpec> specs{CellSpec::of(rich_tpl), CellSpec::of(small_app_cell()),
                                    CellSpec::of(small_sched_cell()),
                                    CellSpec::of(no_backfill)};

  CellResult app;
  app.type = CellType::App;
  app.app_s = 1.25;
  CellResult unsupported;
  unsupported.status = CellStatus::Unsupported;
  const std::vector<CellResult> results{eval::run_cell(CellSpec::of(faulted_tpl_cell())), app,
                                        eval::run_cell(CellSpec::of(small_sched_cell())),
                                        eval::run_cell(CellSpec::of(infeasible_sched_cell())),
                                        unsupported};

  std::vector<CodecCase> corpus;
  for (const CellSpec& s : specs) corpus.push_back({"spec", eval::encode_spec(s), spec_rt});
  for (const CellResult& r : results) {
    corpus.push_back({"result", eval::encode_result(r), result_rt});
  }

  corpus.push_back({"lookup", encode_lookup({false, specs}),
                    round_trip(decode_lookup, encode_lookup)});
  corpus.push_back({"lookup", encode_lookup({true, {specs[2]}}),
                    round_trip(decode_lookup, encode_lookup)});
  LookupReply reply;
  reply.items.push_back({Origin::Computed, eval::encode_result(results[0])});
  reply.items.push_back({Origin::NegativeCache, eval::encode_result(results[3])});
  reply.items.push_back({Origin::Cache, {}});
  corpus.push_back({"lookup_reply", encode_lookup_reply(reply),
                    round_trip(decode_lookup_reply, encode_lookup_reply)});
  DaemonStats stats;
  stats.entries = 3;
  stats.hits = 1ull << 40;
  stats.model_version = eval::kModelVersion;
  corpus.push_back({"stats_reply", encode_stats_reply(stats),
                    round_trip(decode_stats_reply, encode_stats_reply)});
  corpus.push_back({"invalidate", encode_invalidate({true, {}}),
                    round_trip(decode_invalidate, encode_invalidate)});
  corpus.push_back({"invalidate", encode_invalidate({false, specs[0]}),
                    round_trip(decode_invalidate, encode_invalidate)});
  corpus.push_back({"invalidate_reply", encode_invalidate_reply(42),
                    round_trip(decode_invalidate_reply, encode_invalidate_reply)});
  corpus.push_back({"error", encode_error("malformed lookup"),
                    round_trip(decode_error, encode_error)});
  return corpus;
}

Bytes mutate(const Bytes& in, std::mt19937_64& rng) {
  Bytes out = in;
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  switch (pick(6)) {
    case 0:  // flip one bit
      out[pick(out.size())] ^= std::byte{static_cast<unsigned char>(1u << pick(8))};
      break;
    case 1:  // overwrite a byte: often small, to land on enum and bool values
      out[pick(out.size())] =
          std::byte{static_cast<unsigned char>(rng() % 2 ? pick(4) : pick(256))};
      break;
    case 2:  // truncate
      out.resize(pick(out.size()));
      break;
    case 3:  // insert a byte
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(pick(out.size() + 1)),
                 std::byte{static_cast<unsigned char>(pick(256))});
      break;
    default: {  // inflate a u32 length or count prefix somewhere
      if (out.size() < 4) break;
      const std::size_t at = pick(out.size() - 3);
      const std::uint32_t big[] = {0xFFFFFFFFu, (1u << 20) + 1, (1u << 24) + 1,
                                   static_cast<std::uint32_t>(out.size() - at)};
      const std::uint32_t v = big[pick(std::size(big))];
      for (int i = 0; i < 4; ++i) out[at + i] = static_cast<std::byte>(v >> (8 * i));
      break;
    }
  }
  return out;
}

TEST(CodecMutation, DecodersNeverThrowAndAcceptOnlyCanonicalBytes) {
  const std::vector<CodecCase> corpus = codec_corpus();
  for (const CodecCase& c : corpus) {
    const auto back = c.round_trip(c.bytes);
    ASSERT_TRUE(back.has_value()) << c.name;
    ASSERT_EQ(*back, c.bytes) << c.name;
  }
  std::mt19937_64 rng(0x5EEDC0DEull);
  constexpr int kCases = 4000;
  int accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const CodecCase& c = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const Bytes input = mutate(c.bytes, rng);
    std::optional<Bytes> back;
    ASSERT_NO_THROW(back = c.round_trip(input)) << c.name << " case " << i;
    if (!back) continue;
    ++accepted;
    ASSERT_EQ(*back, input) << c.name << " case " << i << " decoded a non-canonical input";
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, kCases / 10);
  EXPECT_LT(accepted, kCases * 9 / 10);
}

// -- store ------------------------------------------------------------------

std::vector<std::byte> as_bytes(const std::string& s) {
  std::vector<std::byte> out(s.size());
  std::memcpy(out.data(), s.data(), s.size());
  return out;
}

TEST(Store, InsertLookupInvalidate) {
  Store store;  // in-memory
  const auto spec = as_bytes("spec-a");
  const auto result = as_bytes("result-a");
  const auto key = eval::cell_key(spec);

  EXPECT_FALSE(store.lookup(key, spec).has_value());
  store.insert(key, spec, result, false);
  const auto hit = store.lookup(key, spec);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->result, result);
  EXPECT_FALSE(hit->negative);
  EXPECT_EQ(store.entries(), 1u);

  EXPECT_TRUE(store.invalidate(key, spec));
  EXPECT_FALSE(store.lookup(key, spec).has_value());
  EXPECT_FALSE(store.invalidate(key, spec));
  EXPECT_EQ(store.entries(), 0u);
}

TEST(Store, FirstWriterWinsAndNegativeEntriesAreCounted) {
  Store store;
  const auto spec = as_bytes("spec-b");
  const auto key = eval::cell_key(spec);
  store.insert(key, spec, as_bytes("first"), false);
  store.insert(key, spec, as_bytes("second"), false);  // concurrent loser
  EXPECT_EQ(store.lookup(key, spec)->result, as_bytes("first"));
  EXPECT_EQ(store.entries(), 1u);

  const auto bad_spec = as_bytes("spec-bad");
  store.insert(eval::cell_key(bad_spec), bad_spec, as_bytes("boom"), true);
  EXPECT_TRUE(store.lookup(eval::cell_key(bad_spec), bad_spec)->negative);
  EXPECT_EQ(store.stats().negative_entries, 1u);
}

TEST(Store, SurvivesManyEntriesAndGrowth) {
  Store store;
  std::vector<std::vector<std::byte>> specs;
  for (int i = 0; i < 500; ++i) specs.push_back(as_bytes("spec-" + std::to_string(i)));
  for (const auto& s : specs) store.insert(eval::cell_key(s), s, s, false);
  EXPECT_EQ(store.entries(), specs.size());
  for (const auto& s : specs) {
    const auto hit = store.lookup(eval::cell_key(s), s);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, s);
  }
}

TEST(Store, InvalidateInsertChurnNeverFillsTheIndex) {
  // Invalidated entries keep their slots until a rehash; churning far more
  // distinct specs than the initial 64-slot capacity while live entries
  // stay at <=1 used to fill every slot with dead records (growth
  // triggered on live count only), after which any probe for an absent
  // key spun forever. Occupancy-based rehashing must keep this bounded.
  Store store;
  for (int i = 0; i < 4096; ++i) {
    const auto spec = as_bytes("churn-" + std::to_string(i));
    const auto key = eval::cell_key(spec);
    store.insert(key, spec, spec, false);
    EXPECT_TRUE(store.invalidate(key, spec));
  }
  EXPECT_EQ(store.entries(), 0u);
  const auto absent = as_bytes("never-inserted");
  EXPECT_FALSE(store.lookup(eval::cell_key(absent), absent).has_value());
  // And the table still works for real inserts afterwards.
  const auto spec = as_bytes("alive-again");
  store.insert(eval::cell_key(spec), spec, spec, false);
  EXPECT_EQ(store.lookup(eval::cell_key(spec), spec)->result, spec);
}

TEST(Store, PersistsAcrossReopenAndTombstonesStick) {
  const std::string path = scratch_path("persist");
  const auto spec_a = as_bytes("spec-a"), spec_b = as_bytes("spec-b");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec_a), spec_a, as_bytes("result-a"), false);
    store.insert(eval::cell_key(spec_b), spec_b, as_bytes("result-b"), true);
    store.invalidate(eval::cell_key(spec_b), spec_b);
  }
  {
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 1u);
    const auto hit = store.lookup(eval::cell_key(spec_a), spec_a);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->result, as_bytes("result-a"));
    // The tombstone survived the reopen.
    EXPECT_FALSE(store.lookup(eval::cell_key(spec_b), spec_b).has_value());
  }
  ::unlink(path.c_str());
}

TEST(Store, ModelVersionBumpNeverServesOldBytes) {
  const std::string path = scratch_path("bump");
  const auto spec = as_bytes("spec-v");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec, 9), spec, as_bytes("old-bytes"), false);
  }
  {
    Store store(path, 10);
    EXPECT_EQ(store.stats().discarded_stale, 1u);
    EXPECT_EQ(store.entries(), 0u);
    // Neither address can reach the stale record: the store is empty.
    EXPECT_FALSE(store.lookup(eval::cell_key(spec, 9), spec).has_value());
    EXPECT_FALSE(store.lookup(eval::cell_key(spec, 10), spec).has_value());
    store.insert(eval::cell_key(spec, 10), spec, as_bytes("new-bytes"), false);
    EXPECT_EQ(store.lookup(eval::cell_key(spec, 10), spec)->result, as_bytes("new-bytes"));
  }
  {
    // ...and the rewritten store replays only version-10 content.
    Store store(path, 10);
    EXPECT_EQ(store.stats().recovered, 1u);
    EXPECT_EQ(store.lookup(eval::cell_key(spec, 10), spec)->result, as_bytes("new-bytes"));
  }
  ::unlink(path.c_str());
}

TEST(Store, TornTailIsTruncatedOnRecovery) {
  const std::string path = scratch_path("torn");
  const auto spec_a = as_bytes("spec-a"), spec_b = as_bytes("spec-b");
  {
    Store store(path, 9);
    store.insert(eval::cell_key(spec_a), spec_a, as_bytes("result-a"), false);
    store.insert(eval::cell_key(spec_b), spec_b, as_bytes("result-b"), false);
  }
  {
    // A crash mid-append: a length prefix promising more bytes than exist.
    std::ofstream f(path, std::ios::binary | std::ios::app);
    const std::uint32_t len = 100;
    f.write(reinterpret_cast<const char*>(&len), sizeof(len));
    f.write("torn", 4);
  }
  {
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 2u);
    EXPECT_TRUE(store.lookup(eval::cell_key(spec_a), spec_a).has_value());
    EXPECT_TRUE(store.lookup(eval::cell_key(spec_b), spec_b).has_value());
    // The tail was cut away, so appending keeps working...
    const auto spec_c = as_bytes("spec-c");
    store.insert(eval::cell_key(spec_c), spec_c, as_bytes("result-c"), false);
  }
  {
    // ...and the repaired log replays all three.
    Store store(path, 9);
    EXPECT_EQ(store.stats().recovered, 3u);
  }
  ::unlink(path.c_str());
}

// -- a store log written by an earlier build ---------------------------------
//
// tests/data/store_model9.pdce was written at kModelVersion 9 by the build
// before the codec moved onto eval/byte_codec.hpp, the way the daemon
// writes it (key = cell_key(encode_spec(spec)), negative = Status::Error):
// five inserts in fixture_specs() order, then a tombstone for the last
// one. A model-version bump regenerates it.

std::vector<CellSpec> fixture_specs() {
  return {CellSpec::of(faulted_tpl_cell()), CellSpec::of(small_app_cell()),
          CellSpec::of(small_sched_cell()), CellSpec::of(infeasible_sched_cell()),
          CellSpec::of(tombstoned_tpl_cell())};
}

std::vector<std::byte> read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  const std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  return as_bytes(s);
}

void write_file(const std::string& path, std::span<const std::byte> bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
}

TEST(Store, ModelNineFixtureReplaysByteEqualAndSurvivesEveryTruncation) {
  ASSERT_EQ(eval::kModelVersion, 9u) << "regenerate tests/data/store_model9.pdce";
  const std::vector<std::byte> log = read_file(PDC_TEST_DATA_DIR "/store_model9.pdce");
  ASSERT_FALSE(log.empty());

  const std::vector<CellSpec> specs = fixture_specs();
  std::vector<std::vector<std::byte>> spec_bytes, fresh;
  for (const CellSpec& s : specs) {
    spec_bytes.push_back(eval::encode_spec(s));
    fresh.push_back(eval::encode_result(eval::run_cell(s)));
  }

  // Record ends: a 16-byte header, then per record u32 len | kind u8 |
  // key u64 | spec_len u32 | result_len u32 | spec | result | u32 crc.
  std::vector<std::size_t> ends;
  std::size_t end = 16;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    end += 4 + 17 + spec_bytes[i].size() + fresh[i].size() + 4;
    ends.push_back(end);
  }
  end += 4 + 17 + spec_bytes.back().size() + 4;  // the tombstone
  ends.push_back(end);
  ASSERT_EQ(ends.back(), log.size());

  const std::string path = scratch_path("fixture");
  // Which specs a replay of the first `records` records serves.
  const auto live_after = [&](std::size_t records) {
    std::vector<bool> live(specs.size(), false);
    for (std::size_t r = 0; r < std::min(records, specs.size()); ++r) live[r] = true;
    if (records > specs.size()) live.back() = false;  // the tombstone
    return live;
  };
  const auto expect_serves = [&](const Store& store, const std::vector<bool>& live,
                                 std::size_t cut) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto hit = store.lookup(eval::cell_key(spec_bytes[i]), spec_bytes[i]);
      ASSERT_EQ(hit.has_value(), live[i]) << "cut " << cut << " spec " << i;
      if (!hit) continue;
      EXPECT_EQ(hit->result, fresh[i]) << "cut " << cut << " spec " << i;
      EXPECT_EQ(hit->negative, i == 3) << "cut " << cut;  // the infeasible cell
    }
  };

  {
    write_file(path, log);
    const Store store(path, eval::kModelVersion);
    EXPECT_EQ(store.stats().recovered, 4u);
    EXPECT_EQ(store.stats().discarded_stale, 0u);
    EXPECT_EQ(store.stats().log_bytes, log.size());
    expect_serves(store, live_after(ends.size()), log.size());
  }

  // A crash can cut the log at any byte. Replay keeps exactly the complete
  // records before the cut, and the repaired log takes later appends.
  const auto later = as_bytes("appended-after-the-cut");
  for (std::size_t cut = 0; cut <= log.size(); ++cut) {
    write_file(path, {log.data(), cut});
    std::size_t records = 0;
    while (records < ends.size() && ends[records] <= cut) ++records;
    const std::vector<bool> live = live_after(records);
    const auto live_count = static_cast<std::uint64_t>(std::count(live.begin(), live.end(), true));
    {
      Store store(path, eval::kModelVersion);
      ASSERT_EQ(store.stats().recovered, live_count) << "cut " << cut;
      ASSERT_EQ(store.stats().log_bytes, records == 0 ? 16u : ends[records - 1]) << "cut " << cut;
      expect_serves(store, live, cut);
      store.insert(eval::cell_key(later), later, later, false);
    }
    const Store reopened(path, eval::kModelVersion);
    ASSERT_EQ(reopened.stats().recovered, live_count + 1) << "cut " << cut;
    ASSERT_TRUE(reopened.lookup(eval::cell_key(later), later).has_value()) << "cut " << cut;
    if (HasFatalFailure()) break;
  }
  ::unlink(path.c_str());
}

TEST(Store, CorruptMiddleRecordIsReportedAndTheRepairedLogReplays) {
  // One bad byte in the fixture's second record: replay keeps the first
  // record, cuts the rest, and says how much it cut.
  std::vector<std::byte> log = read_file(PDC_TEST_DATA_DIR "/store_model9.pdce");
  const std::vector<CellSpec> specs = fixture_specs();
  const std::vector<std::byte> first_spec = eval::encode_spec(specs[0]);
  const std::size_t first_end =
      16 + 4 + 17 + first_spec.size() + eval::encode_result(eval::run_cell(specs[0])).size() + 4;
  const std::vector<std::byte> second_spec = eval::encode_spec(specs[1]);
  log[first_end + 4 + 17 + second_spec.size() / 2] ^= std::byte{0x40};  // inside its spec

  const std::string path = scratch_path("corrupt-middle");
  write_file(path, log);
  const auto later = as_bytes("appended-after-the-repair");
  {
    Store store(path, eval::kModelVersion);
    EXPECT_EQ(store.stats().recovered, 1u);
    EXPECT_EQ(store.stats().truncated_bytes, log.size() - first_end);
    EXPECT_EQ(store.stats().log_bytes, first_end);
    EXPECT_TRUE(store.lookup(eval::cell_key(first_spec), first_spec).has_value());
    EXPECT_FALSE(store.lookup(eval::cell_key(second_spec), second_spec).has_value());
    store.insert(eval::cell_key(later), later, later, false);
  }
  const Store reopened(path, eval::kModelVersion);
  EXPECT_EQ(reopened.stats().recovered, 2u);
  EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
  EXPECT_TRUE(reopened.lookup(eval::cell_key(first_spec), first_spec).has_value());
  EXPECT_TRUE(reopened.lookup(eval::cell_key(later), later).has_value());
  ::unlink(path.c_str());
}

// A --store path naming someone else's file must be refused, not wiped:
// only an empty file or a header cut short by a crash is (re)initialised.
TEST(Store, ForeignFileIsRefusedAndLeftUntouched) {
  const std::string path = scratch_path("foreign");
  for (const std::string& text :
       {std::string("meeting notes, Tuesday: keep these bytes; the store must not eat them\n"),
        std::string("abc"), std::string("PDCE\x02\x00\x00\x00 wrong format", 21)}) {
    write_file(path, as_bytes(text));
    try {
      const Store store(path, 9);
      ADD_FAILURE() << "opened a foreign file as a store: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
    }
    EXPECT_EQ(read_file(path), as_bytes(text));
  }
  // Empty, or a prefix of a header (of any version): a fresh store.
  const std::vector<std::byte> header = [&] {
    { const Store store(path + ".ref", 7); }
    return read_file(path + ".ref");
  }();
  ASSERT_EQ(header.size(), 16u);
  for (const std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{8}, std::size_t{12}}) {
    write_file(path, {header.data(), cut});
    {
      const Store store(path, 9);
      EXPECT_EQ(store.stats().log_bytes, 16u) << "cut " << cut;
    }
    EXPECT_EQ(read_file(path).size(), 16u) << "cut " << cut;
  }
  ::unlink(path.c_str());
  ::unlink((path + ".ref").c_str());
}

/// The fixture's records as the log lays them out, parsed straight from its
/// bytes: where each ends, and the spec and result it carries.
struct LogEntry {
  std::size_t end{0};
  std::uint8_t kind{0};
  std::vector<std::byte> spec, result;
};

std::vector<LogEntry> parse_log(const std::vector<std::byte>& log) {
  const auto u32_at = [&](std::size_t at) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::to_integer<std::uint32_t>(log[at + i]) << (8 * i);
    return v;
  };
  std::vector<LogEntry> out;
  std::size_t at = 16;
  while (at < log.size()) {
    const std::size_t payload = at + 4;
    const std::uint32_t spec_len = u32_at(payload + 9);
    const std::uint32_t result_len = u32_at(payload + 13);
    const auto spec = log.begin() + static_cast<std::ptrdiff_t>(payload + 17);
    LogEntry e;
    e.kind = std::to_integer<std::uint8_t>(log[payload]);
    e.spec.assign(spec, spec + spec_len);
    e.result.assign(spec + spec_len, spec + spec_len + result_len);
    at = payload + u32_at(at) + 4;
    e.end = at;
    out.push_back(std::move(e));
  }
  return out;
}

TEST(StoreMutation, ReplayKeepsExactlyTheRecordsBeforeTheFirstDamagedOne) {
  const std::vector<std::byte> log = read_file(PDC_TEST_DATA_DIR "/store_model9.pdce");
  const std::vector<LogEntry> recs = parse_log(log);
  ASSERT_EQ(recs.size(), 6u);  // five inserts, then a tombstone for the last
  ASSERT_EQ(recs.back().end, log.size());
  ASSERT_EQ(recs.back().kind, 3);

  const std::string path = scratch_path("mutated");
  const auto later = as_bytes("appended-after-replay");
  std::mt19937_64 rng(0x57012Eull);
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  constexpr int kCases = 1500;
  int refused = 0, stale = 0, replayed = 0;
  for (int i = 0; i < kCases; ++i) {
    // One byte flip, overwrite or insertion at `at`, aimed at the header a
    // tenth of the time so the magic, format and version bytes get hit.
    std::vector<std::byte> bytes = log;
    const std::size_t at = pick(10) == 0 ? pick(16) : pick(log.size() + 1);
    const auto value = std::byte{static_cast<unsigned char>(pick(256))};
    switch (at == log.size() ? 2 : pick(3)) {
      case 0: bytes[at] ^= std::byte{static_cast<unsigned char>(1u << pick(8))}; break;
      case 1: bytes[at] = value; break;
      default: bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at), value); break;
    }
    write_file(path, bytes);
    SCOPED_TRACE("case " + std::to_string(i) + " at " + std::to_string(at));

    if (!std::equal(bytes.begin(), bytes.begin() + 8, log.begin())) {
      EXPECT_THROW({ const Store refused(path, eval::kModelVersion); }, std::runtime_error);
      ASSERT_EQ(read_file(path), bytes) << "a refused file must stay untouched";
      ++refused;
      continue;
    }
    std::optional<Store> store;
    ASSERT_NO_THROW(store.emplace(path, eval::kModelVersion));
    if (!std::equal(bytes.begin(), bytes.begin() + 16, log.begin())) {
      // Another model version: discarded wholesale, never served.
      EXPECT_EQ(store->entries(), 0u);
      EXPECT_EQ(store->stats().log_bytes, 16u);
      ++stale;
      continue;
    }
    // Records wholly before `at` are intact; the one holding `at` (or the
    // garbage byte appended after the last) is the first damaged one.
    // Unchanged bytes (an overwrite with the same value) damage nothing.
    std::size_t intact = 0;
    if (bytes == log) {
      intact = recs.size();
    } else {
      while (intact < recs.size() && recs[intact].end <= at) ++intact;
    }
    const std::size_t good_end = intact == 0 ? 16 : recs[intact - 1].end;
    std::uint64_t live = 0;
    for (std::size_t r = 0; r < 5; ++r) {
      const bool want = r < intact && !(r == 4 && intact == recs.size());
      const auto hit = store->lookup(eval::cell_key(recs[r].spec), recs[r].spec);
      ASSERT_EQ(hit.has_value(), want) << "record " << r;
      if (!hit) continue;
      ++live;
      EXPECT_EQ(hit->result, recs[r].result) << "record " << r;
      EXPECT_EQ(hit->negative, recs[r].kind == 2) << "record " << r;
    }
    EXPECT_EQ(store->stats().recovered, live);
    EXPECT_EQ(store->stats().truncated_bytes, bytes.size() - good_end);
    EXPECT_EQ(store->stats().log_bytes, good_end);
    store->insert(eval::cell_key(later), later, later, false);
    store.reset();
    const Store reopened(path, eval::kModelVersion);
    EXPECT_EQ(reopened.stats().recovered, live + 1);
    EXPECT_EQ(reopened.stats().truncated_bytes, 0u);
    EXPECT_TRUE(reopened.lookup(eval::cell_key(later), later).has_value());
    ++replayed;
    if (HasFatalFailure()) break;
  }
  // Every verdict was exercised.
  EXPECT_GT(refused, 0);
  EXPECT_GT(stale, 0);
  EXPECT_GT(replayed, kCases / 2);
  ::unlink(path.c_str());
}

// -- framing edge cases over a real socket ----------------------------------

class LiveServer {
 public:
  LiveServer() {
    ServerConfig config;
    config.socket_path = scratch_path("sock");
    server_ = std::make_unique<Server>(config);
    server_->start();
  }
  ~LiveServer() { server_->stop(); }
  [[nodiscard]] const std::string& path() const { return server_->socket_path(); }
  [[nodiscard]] Server& server() { return *server_; }

 private:
  std::unique_ptr<Server> server_;
};

int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void send_raw(int fd, const void* data, std::size_t n) {
  EXPECT_EQ(::send(fd, data, n, MSG_NOSIGNAL), static_cast<ssize_t>(n));
}

/// Drain until the peer closes; returns the bytes received.
std::vector<std::byte> recv_until_close(int fd) {
  std::vector<std::byte> all;
  std::byte buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
    if (got <= 0) break;
    all.insert(all.end(), buf, buf + got);
  }
  return all;
}

TEST(Framing, ZeroLengthPayloadIsAValidFrame) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  // An empty payload frames fine (len 0, CRC of nothing); the server
  // rejects it as a *message* -- no type byte -- with an error reply.
  ASSERT_TRUE(write_frame(fd, {}));
  std::vector<std::byte> reply;
  ASSERT_EQ(read_frame(fd, reply), FrameStatus::Ok);
  EXPECT_EQ(peek_type(reply), MsgType::Error);
  // ...and then closes: the stream is no longer trusted.
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
}

TEST(Framing, OversizedLengthPrefixClosesWithoutReply) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const std::uint32_t len = kMaxFramePayload + 1;
  send_raw(fd, &len, sizeof(len));
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  // The daemon records the violation and keeps serving.
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
  EXPECT_GE(live.server().stats().frame_errors, 1u);
}

TEST(Framing, TruncatedFrameClosesWithoutReply) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const std::uint32_t len = 64;
  send_raw(fd, &len, sizeof(len));
  send_raw(fd, "only-ten-b", 10);
  ::shutdown(fd, SHUT_WR);  // stream ends mid-frame
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
}

TEST(Framing, CorruptedCrcIsRejectedWithCleanClose) {
  LiveServer live;
  const int fd = connect_raw(live.path());
  const auto payload = encode_ping();
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::uint32_t crc = crc32(payload) ^ 0x1u;  // one bit off
  send_raw(fd, &len, sizeof(len));
  send_raw(fd, payload.data(), payload.size());
  send_raw(fd, &crc, sizeof(crc));
  // No reply, no resync: just a clean close.
  EXPECT_TRUE(recv_until_close(fd).empty());
  ::close(fd);
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
  EXPECT_GE(live.server().stats().frame_errors, 1u);
}

TEST(Framing, MaximumLengthPrefixItselfIsAccepted) {
  // kMaxFramePayload exactly is legal by contract; sending that much
  // memory through a unit test is wasteful, so pin the boundary at the
  // reader level instead: one byte over must be TooLong, the cap itself
  // must get past the length check (failing later, on truncation).
  LiveServer live;
  {
    const int fd = connect_raw(live.path());
    const std::uint32_t len = kMaxFramePayload;
    send_raw(fd, &len, sizeof(len));
    send_raw(fd, "partial", 7);
    ::shutdown(fd, SHUT_WR);
    // Truncation, not TooLong: the server read past the prefix.
    EXPECT_TRUE(recv_until_close(fd).empty());
    ::close(fd);
  }
  Client probe(live.path());
  EXPECT_TRUE(probe.ping());
}

TEST(Framing, WriteFrameRefusesOversizedPayload) {
  // The cap binds on the writing side too: a frame the reader would
  // reject must never reach the wire (and a >4 GiB payload would
  // silently truncate its u32 length prefix).
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::vector<std::byte> too_big(static_cast<std::size_t>(kMaxFramePayload) + 1);
  EXPECT_FALSE(write_frame(sv[0], too_big));
  // Nothing was sent: once the writer closes, the peer sees a clean EOF
  // rather than a partial frame.
  ::close(sv[0]);
  std::vector<std::byte> payload;
  EXPECT_EQ(read_frame(sv[1], payload), FrameStatus::Eof);
  ::close(sv[1]);
}

TEST(Framing, StalledLargeFrameHoldsAtMostOneStep) {
  // A header declaring the maximum payload, then the peer hangs up: the
  // reader reports the truncation having grown its buffer by one step, not
  // by the 32 MiB the prefix announced.
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::uint32_t len = kMaxFramePayload;
  send_raw(sv[0], &len, sizeof(len));
  ::close(sv[0]);
  std::vector<std::byte> payload;
  EXPECT_EQ(read_frame(sv[1], payload), FrameStatus::Truncated);
  EXPECT_LE(payload.capacity(), kFrameReadStep);
  ::close(sv[1]);
}

// -- read_frame over mutated byte streams -----------------------------------

/// Valid frames, back to back: `payloads` framed in order.
Bytes frame_stream(const std::vector<Bytes>& payloads) {
  Bytes out;
  for (const Bytes& p : payloads) {
    const Bytes f = frame(p);
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

TEST(FrameMutation, ReaderReturnsOnlyOriginalFramesAndStopsAtTheFirstBadOne) {
  std::mt19937_64 rng(0xF4A3EDull);
  Bytes big(kFrameReadStep + 1000);  // crosses a growth step
  for (std::byte& b : big) b = static_cast<std::byte>(rng());
  const std::vector<Bytes> small = {encode_ping(), {}, encode_lookup({false, sample_specs()}),
                                    encode_error("malformed lookup"), encode_invalidate_reply(7)};
  const std::vector<std::vector<Bytes>> corpus = {
      small, {encode_ping(), big, encode_stats_request()}};

  const std::string path = scratch_path("frames");
  constexpr int kCases = 1500;
  int truncated = 0, too_long = 0, bad_crc = 0, clean = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::vector<Bytes>& payloads = corpus[static_cast<std::size_t>(i) % corpus.size()];
    const Bytes original = frame_stream(payloads);
    const Bytes input = mutate(original, rng);
    write_file(path, input);
    SCOPED_TRACE("case " + std::to_string(i));
    // Every frame that ends before the first changed byte is intact.
    const std::size_t first_change =
        static_cast<std::size_t>(std::mismatch(input.begin(), input.end(), original.begin(),
                                               original.end()).first - input.begin());
    std::size_t intact = 0;
    for (std::size_t end = 0; intact < payloads.size(); ++intact) {
      end += payloads[intact].size() + kFrameOverhead;
      if (end > first_change) break;
    }

    const int fd = ::open(path.c_str(), O_RDONLY);
    ASSERT_GE(fd, 0);
    std::size_t ok = 0;
    FrameStatus status = FrameStatus::Ok;
    for (;;) {
      std::vector<std::byte> payload;
      ASSERT_NO_THROW(status = read_frame(fd, payload));
      if (status != FrameStatus::Ok) break;
      ASSERT_LT(ok, payloads.size()) << "read a frame past the end of the stream";
      ASSERT_EQ(payload, payloads[ok]) << "frame " << ok << " is not the original";
      ++ok;
    }
    ::close(fd);
    ASSERT_GE(ok, intact);
    ASSERT_NE(status, FrameStatus::IoError);
    truncated += status == FrameStatus::Truncated;
    too_long += status == FrameStatus::TooLong;
    bad_crc += status == FrameStatus::BadCrc;
    clean += status == FrameStatus::Eof && ok == payloads.size();
  }
  // Every verdict was exercised.
  EXPECT_GT(truncated, 0);
  EXPECT_GT(too_long, 0);
  EXPECT_GT(bad_crc, 0);
  EXPECT_GT(clean, 0);
  ::unlink(path.c_str());
}

// -- CLI cell-spec parsing --------------------------------------------------

TEST(CellArgs, RejectsNonNumericBytesAndProcs) {
  // atoll-style parsing silently turned "abc" into 0, producing a
  // degenerate cell spec instead of a usage error.
  CellSpec spec;
  EXPECT_TRUE(tools::parse_cell_spec("p4:ethernet:sendrecv:2048:4", spec));
  EXPECT_EQ(spec.type, eval::CellType::Tpl);
  EXPECT_EQ(spec.tpl.bytes, 2048);
  EXPECT_EQ(spec.tpl.procs, 4);
  for (const char* bad :
       {"p4:ethernet:sendrecv:abc", "p4:ethernet:sendrecv:1k:2", "p4:ethernet:sendrecv:12x:2",
        "p4:ethernet:sendrecv:1:abc", "p4:ethernet:sendrecv:1:2x", "p4:ethernet:sendrecv:-1:2",
        "p4:ethernet:sendrecv:1:0", "p4:ethernet:sendrecv:1:-2",
        "p4:ethernet:sendrecv:1:99999999999"}) {
    EXPECT_FALSE(tools::parse_cell_spec(bad, spec)) << bad;
  }
  // Empty trailing fields still mean "keep the defaults".
  EXPECT_TRUE(tools::parse_cell_spec("p4:ethernet:sendrecv::", spec));
  // An app name makes it an App cell; tool, platform and procs land there too.
  EXPECT_TRUE(tools::parse_cell_spec("pvm:fddi:fft::4", spec));
  EXPECT_EQ(spec.type, eval::CellType::App);
  EXPECT_EQ(spec.app.app, eval::AppKind::Fft2d);
  EXPECT_EQ(spec.app.tool, mp::ToolKind::Pvm);
  EXPECT_EQ(spec.app.platform, host::PlatformId::AlphaFddi);
  EXPECT_EQ(spec.app.procs, 4);

  // The pdcsched / pdctrace / pdceval numeric flags: atoi/atof turned
  // "--procs abc" into 0 and "--drop 1.5" into an exception at run time.
  int count = 7;
  EXPECT_TRUE(tools::parse_count("4096", count));
  EXPECT_EQ(count, 4096);
  for (const char* bad : {"abc", "-3", "0", "", " 4", "4 ", "+4", "2x", "1e3", "2147483648"}) {
    EXPECT_FALSE(tools::parse_count(bad, count)) << bad;
    EXPECT_EQ(count, 4096) << bad;  // untouched on failure
  }
  double x = 0.0;
  EXPECT_TRUE(tools::parse_double("2000", x));
  EXPECT_EQ(x, 2000.0);
  EXPECT_TRUE(tools::parse_double("0.25", x));
  EXPECT_EQ(x, 0.25);
  EXPECT_TRUE(tools::parse_double("1e-3", x));
  EXPECT_EQ(x, 1e-3);
  for (const char* bad : {"abc", "", "1.5x", " 1", "+1", "inf", "nan", "1e999", "0x10"}) {
    EXPECT_FALSE(tools::parse_double(bad, x)) << bad;
    EXPECT_EQ(x, 1e-3) << bad;
  }
  double rate = 0.5;
  EXPECT_TRUE(tools::parse_fault_rate("0", rate));
  EXPECT_EQ(rate, 0.0);
  EXPECT_TRUE(tools::parse_fault_rate("0.05", rate));
  EXPECT_EQ(rate, 0.05);
  for (const char* bad : {"1.5", "1", "-1", "-0.01", "abc", "0.5junk"}) {
    EXPECT_FALSE(tools::parse_fault_rate(bad, rate)) << bad;
    EXPECT_EQ(rate, 0.05) << bad;
  }
  std::uint64_t seed = 0;
  EXPECT_TRUE(tools::parse_seed("7", seed));
  EXPECT_EQ(seed, 7u);
  EXPECT_TRUE(tools::parse_seed("0xFA17", seed));
  EXPECT_EQ(seed, 0xFA17u);
  for (const char* bad : {"", "-1", "abc", "0x", "0xZZ", "12q", "18446744073709551616"}) {
    EXPECT_FALSE(tools::parse_seed(bad, seed)) << bad;
    EXPECT_EQ(seed, 0xFA17u) << bad;
  }
}

TEST(CellArgs, RangeParsesSingleLinearAndGeometric) {
  std::vector<std::int64_t> v;
  EXPECT_TRUE(tools::parse_range("4096", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{4096}));
  EXPECT_TRUE(tools::parse_range("0", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{0}));
  EXPECT_TRUE(tools::parse_range("2..8x2", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{2, 4, 6, 8}));
  EXPECT_TRUE(tools::parse_range("2..9x3", v));  // endpoint not hit: stop at <= hi
  EXPECT_EQ(v, (std::vector<std::int64_t>{2, 5, 8}));
  EXPECT_TRUE(tools::parse_range("5..5x1", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{5}));
  EXPECT_TRUE(tools::parse_range("256..4096*4", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{256, 1024, 4096}));
  EXPECT_TRUE(tools::parse_range("3..100*10", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{3, 30}));
}

TEST(CellArgs, RangeRejectsMalformedAndOverflowing) {
  const std::vector<std::int64_t> sentinel{77};
  std::vector<std::int64_t> v = sentinel;
  for (const char* bad :
       {"", "x", "abc", "-1", "1..8", "1..8y2", "1..8x", "1..8*", "1..8x0", "1..8*1",
        "0..8*2", "8..1x1", "-1..8x1", "1..8x-2", "1..abcx2", "1..8x2junk", " 1..8x2",
        "1..9223372036854775808x1", "1..200000x1"}) {
    EXPECT_FALSE(tools::parse_range(bad, v)) << bad;
    EXPECT_EQ(v, sentinel) << bad;  // out is untouched on failure
  }
}

TEST(CellArgs, RangeWalkStopsBeforeInt64Overflow) {
  std::vector<std::int64_t> v;
  // lo * step would overflow int64; the walk must stop, not wrap.
  EXPECT_TRUE(tools::parse_range("4611686018427387904..9223372036854775807*2", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{4611686018427387904}));
  EXPECT_TRUE(tools::parse_range("9223372036854775800..9223372036854775807x4", v));
  EXPECT_EQ(v, (std::vector<std::int64_t>{9223372036854775800, 9223372036854775804}));
}

/// Mutate a valid CLI argument: flip a bit, overwrite or insert a byte
/// (mostly from the grammar's own alphabet), delete a byte, or duplicate a
/// slice -- the typos and paste accidents a command line sees.
std::string mutate_arg(const std::string& in, std::mt19937_64& rng) {
  static constexpr char kAlphabet[] = "0123456789.:x*-+ eE";
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const auto any_char = [&] {
    return pick(4) == 0 ? static_cast<char>(pick(256)) : kAlphabet[pick(sizeof(kAlphabet) - 1)];
  };
  std::string out = in;
  const std::size_t rounds = 1 + pick(3);
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::size_t at = pick(out.size() + 1);
    switch (at == out.size() ? 2 : pick(5)) {
      case 0: out[at] = static_cast<char>(out[at] ^ (1 << pick(8))); break;
      case 1: out[at] = any_char(); break;
      case 2: out.insert(at, 1, any_char()); break;
      case 3: out.erase(at, 1); break;
      default: out.insert(at, out.substr(at, 1 + pick(out.size() - at))); break;
    }
  }
  return out;
}

/// The leading integer of `s` up to `stop`, if it parses.
std::optional<std::int64_t> number_before(const std::string& s, std::size_t stop) {
  std::int64_t v = 0;
  if (!tools::parse_number(s.substr(0, stop), v)) return std::nullopt;
  return v;
}

TEST(CellArgsMutation, ParsersNeverThrowAndKeepTheirContracts) {
  const std::vector<std::string> ranges = {"4096", "0", "2..8x2", "256..4096*4", "3..100*10",
                                           "5..5x1", "1..65536x1", "9223372036854775800..9223372036854775807x4"};
  const std::vector<std::string> specs = {"p4:ethernet:sendrecv:2048:4", "pvm:fddi:fft::4",
                                          "express:sp1switch:globalsum:1024:16",
                                          "p4:atmwan:ring", "pvm:flat:psrs:0:2"};
  std::mt19937_64 rng(0xA5C11ull);
  constexpr int kCases = 20000;
  int ranges_accepted = 0, specs_accepted = 0;
  for (int i = 0; i < kCases; ++i) {
    const std::string range = mutate_arg(ranges[static_cast<std::size_t>(i) % ranges.size()], rng);
    const std::vector<std::int64_t> sentinel{-7, -7};
    std::vector<std::int64_t> out = sentinel;
    bool ok = false;
    ASSERT_NO_THROW(ok = tools::parse_range(range, out)) << range;
    if (!ok) {
      ASSERT_EQ(out, sentinel) << range << ": a rejected range must leave out untouched";
    } else {
      ++ranges_accepted;
      ASSERT_FALSE(out.empty()) << range;
      ASSERT_LE(out.size(), tools::kMaxRangeValues) << range;
      ASSERT_TRUE(std::adjacent_find(out.begin(), out.end(), std::greater_equal<>()) ==
                  out.end())
          << range << ": not strictly ascending";
      const std::size_t dots = range.find("..");
      const auto lo = number_before(range, dots);
      ASSERT_TRUE(lo.has_value()) << range;
      ASSERT_EQ(out.front(), *lo) << range;
      if (dots != std::string::npos) {
        const std::string tail = range.substr(dots + 2);
        const auto hi = number_before(tail, tail.find_first_of("x*"));
        ASSERT_TRUE(hi.has_value()) << range;
        ASSERT_LE(out.back(), *hi) << range;
      }
    }

    const std::string text = mutate_arg(specs[static_cast<std::size_t>(i) % specs.size()], rng);
    CellSpec spec;
    ASSERT_NO_THROW(ok = tools::parse_cell_spec(text, spec)) << text;
    if (!ok) continue;
    ++specs_accepted;
    ASSERT_TRUE(spec.type == CellType::Tpl || spec.type == CellType::App) << text;
    EXPECT_GE(spec.tpl.bytes, 0) << text;
    EXPECT_GE(spec.type == CellType::Tpl ? spec.tpl.procs : spec.app.procs, 1) << text;
  }
  // Both verdicts must be exercised for both parsers.
  EXPECT_GT(ranges_accepted, kCases / 20);
  EXPECT_LT(ranges_accepted, kCases * 19 / 20);
  EXPECT_GT(specs_accepted, kCases / 50);
  EXPECT_LT(specs_accepted, kCases * 19 / 20);
}

// -- end-to-end caching -----------------------------------------------------

TEST(Evald, CachedResultsAreBitIdenticalForEveryCellKind) {
  LiveServer live;
  Client client(live.path());
  for (const CellSpec& spec : sample_specs()) {
    const auto direct = eval::encode_result(eval::run_cell(spec));

    auto first = client.lookup(spec);
    EXPECT_EQ(first.origin, Origin::Computed) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(first.result), direct) << to_string(spec.type);

    auto second = client.lookup(spec);
    EXPECT_EQ(second.origin, Origin::Cache) << to_string(spec.type);
    EXPECT_EQ(eval::encode_result(second.result), direct) << to_string(spec.type);
  }
}

TEST(Evald, NegativeCachingServesMemoizedFailures) {
  LiveServer live;
  Client client(live.path());
  const CellSpec bad = CellSpec::of(infeasible_sched_cell());

  auto first = client.lookup(bad);
  EXPECT_EQ(first.origin, Origin::Computed);
  EXPECT_EQ(first.result.status, CellStatus::Error);
  EXPECT_FALSE(first.result.error.empty());

  auto second = client.lookup(bad);
  EXPECT_EQ(second.origin, Origin::NegativeCache);
  EXPECT_EQ(eval::encode_result(second.result), eval::encode_result(first.result));
  EXPECT_GE(live.server().stats().negative_hits, 1u);
}

TEST(Evald, MixedSweepOnlySimulatesMissesInRequestOrder) {
  LiveServer live;
  Client client(live.path());
  auto cached_cell = faulted_tpl_cell();
  (void)client.lookup(CellSpec::of(cached_cell));

  auto fresh_cell = cached_cell;
  fresh_cell.bytes *= 2;
  const std::vector<CellSpec> batch{CellSpec::of(fresh_cell), CellSpec::of(cached_cell),
                                    CellSpec::of(infeasible_sched_cell())};
  const auto outcomes = client.sweep(batch);
  ASSERT_EQ(outcomes.size(), batch.size());
  EXPECT_EQ(outcomes[0].origin, Origin::Computed);
  EXPECT_EQ(outcomes[1].origin, Origin::Cache);
  EXPECT_EQ(outcomes[2].origin, Origin::Computed);
  // Reply order is the request order, each slot its own cell.
  EXPECT_EQ(eval::encode_result(outcomes[1].result),
            eval::encode_result(eval::run_cell(batch[1])));
  // A repeat serves everything from memory.
  for (const auto& o : client.sweep(batch)) EXPECT_NE(o.origin, Origin::Computed);
}

TEST(Evald, WarmReportsOriginsWithoutResultBytes) {
  LiveServer live;
  Client client(live.path());
  const auto specs = sample_specs();
  const auto cold = client.warm(specs);
  ASSERT_EQ(cold.size(), specs.size());
  for (const Origin o : cold) EXPECT_EQ(o, Origin::Computed);
  const auto hot = client.warm(specs);
  for (const Origin o : hot) EXPECT_EQ(o, Origin::Cache);
}

TEST(Evald, InvalidationForcesRecomputation) {
  LiveServer live;
  Client client(live.path());
  const CellSpec spec = CellSpec::of(faulted_tpl_cell());
  const auto first = eval::encode_result(client.lookup(spec).result);

  EXPECT_TRUE(client.invalidate(spec));
  EXPECT_FALSE(client.invalidate(spec));  // already gone
  auto redo = client.lookup(spec);
  EXPECT_EQ(redo.origin, Origin::Computed);
  EXPECT_EQ(eval::encode_result(redo.result), first);  // determinism

  EXPECT_GE(client.invalidate_all(), 1u);
  EXPECT_EQ(live.server().stats().entries, 0u);
}

TEST(Evald, DaemonPersistsItsStoreAcrossRestart) {
  const std::string store_path = scratch_path("daemon_store");
  const CellSpec spec = CellSpec::of(small_sched_cell());
  std::vector<std::byte> first;
  ServerConfig config;
  config.store_path = store_path;
  {
    config.socket_path = scratch_path("sock");
    Server server(config);
    server.start();
    Client client(config.socket_path);
    first = eval::encode_result(client.lookup(spec).result);
    server.stop();
  }
  {
    config.socket_path = scratch_path("sock");
    Server server(config);
    server.start();
    Client client(config.socket_path);
    auto served = client.lookup(spec);
    EXPECT_EQ(served.origin, Origin::Cache);  // replayed from disk
    EXPECT_EQ(eval::encode_result(served.result), first);
    server.stop();
  }
  {
    // A model bump opens the same file and finds nothing to serve.
    config.socket_path = scratch_path("sock");
    config.model_version = eval::kModelVersion + 1;
    Server server(config);
    server.start();
    Client client(config.socket_path);
    EXPECT_EQ(client.stats().entries, 0u);
    EXPECT_EQ(client.lookup(spec).origin, Origin::Computed);
    server.stop();
  }
  ::unlink(store_path.c_str());
}

TEST(Evald, ConcurrentClientsAgreeBitIdentically) {
  LiveServer live;
  const auto specs = sample_specs();
  std::vector<std::vector<std::byte>> direct;
  for (const auto& s : specs) direct.push_back(eval::encode_result(eval::run_cell(s)));

  constexpr int kClients = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client(live.path());
      for (int round = 0; round < 3; ++round) {
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const auto got = eval::encode_result(client.lookup(specs[i]).result);
          if (got != direct[i]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
  const DaemonStats stats = live.server().stats();
  EXPECT_EQ(stats.connections, static_cast<std::uint64_t>(kClients));
  // Round 1 may race (every client can miss the same cold cell; the store
  // keeps the first insert), but rounds 2 and 3 must hit for everyone.
  EXPECT_GE(stats.hits, static_cast<std::uint64_t>(kClients * 2 * specs.size()));
}

}  // namespace
}  // namespace pdc::evald
