// pdceval -- trace record format.
//
// One fixed-width POD per traced occurrence. Records carry raw integers
// only (simulated nanoseconds, ranks, byte counts, correlation ids) so a
// stream is bit-reproducible across runs, platforms and sweep thread
// counts, and can be compared byte-for-byte by the determinism tests. All
// interpretation (spans, dependency edges, utilisation windows) happens
// post-run in trace::analyze -- the emit path just stores 56 bytes.
//
// Field use by kind (unused fields are zero):
//
//   kind           t_ns        aux0           aux1        id        notes
//   SendBegin      begin       --             --          msg id    peer=dst, tag, bytes
//   SendEnd        end         --             begin       msg id    blocking span [aux1, t]
//   RecvEnd        end         match          begin       msg id    peer=actual src; wait
//                                                                   span [aux1, aux0], post
//                                                                   processing [aux0, t]
//   CollBegin      begin       CollOp         --          --
//   CollEnd        end         CollOp         begin       --        span [aux1, t]
//   Compute        begin       duration       --          --        billed CPU span
//   Pack           begin       duration       --          msg id    send-side pack/copy
//   Unpack         begin       duration       --          msg id    recv-side decode
//   MsgWire        enqueue     arrival        attempt     msg id    message-level wire hop
//   Frame          enqueue     svc start      svc end     --        one link-level frame;
//                                                                   peer=dst, bytes=wire
//   Retransmit     fire time   attempt        --          link seq  reliable transport
//   FrameDrop      detect      attempt        --          link seq  wire ate a frame/ack
//   CorruptReject  arrival     --             --          link seq  corrupt frame rejected
//   DupDiscard     arrival     --             --          link seq  receiver dedup hit
//   EventDispatch  fire time   events so far  queue size  --        sim kernel (verbose)
//   HostWork       0           wall ns        --          --        host-side kernel span
//                                                                   (wall clock -- excluded
//                                                                   from determinism masks)
//   SchedSubmit    arrival     ranks asked    --          --        rank=user, tag=job id
//   SchedPlace     decision    base node      ranks       --        rank=user, tag=job id
//   SchedStart     start       base node      --          --        rank=user, tag=job id
//   SchedComplete  end         start          ranks       --        rank=user, tag=job id;
//                                                                   job span [aux0, t]
#pragma once

#include <cstdint>

namespace pdc::trace {

enum class Kind : std::uint8_t {
  SendBegin,
  SendEnd,
  RecvEnd,
  CollBegin,
  CollEnd,
  Compute,
  Pack,
  Unpack,
  MsgWire,
  Frame,
  Retransmit,
  FrameDrop,
  CorruptReject,
  DupDiscard,
  EventDispatch,
  HostWork,
  SchedSubmit,    ///< job entered the scheduler queue (aux0 = requested ranks)
  SchedPlace,     ///< placement decided (aux0 = base node, aux1 = ranks)
  SchedStart,     ///< job's rank programs launched (aux0 = base node)
  SchedComplete,  ///< last rank finished (aux0 = start ns, aux1 = ranks)
};

/// Collective operation code carried in aux0 of CollBegin/CollEnd.
enum class CollOp : std::int64_t { Broadcast = 0, Barrier = 1, GlobalSum = 2 };

/// Capture categories: a Sink only stores kinds whose category bit is set
/// in its mask, so the verbose lanes (per-event sim kernel records,
/// wall-clock host spans) are opt-in.
enum Category : std::uint32_t {
  kCatMp = 1u << 0,         ///< send/recv/collective/compute/pack spans
  kCatNet = 1u << 1,        ///< link-level frames + message wire hops
  kCatTransport = 1u << 2,  ///< reliable-transport retransmit/dedup/reject
  kCatSim = 1u << 3,        ///< per-event kernel dispatch (very verbose)
  kCatHost = 1u << 4,       ///< host wall-clock kernel spans (nondeterministic)
  kCatSched = 1u << 5,      ///< scheduler lifecycle (submit/place/start/complete)
};

/// Deterministic default: everything except the per-event firehose and the
/// wall-clock host spans. Streams captured under this mask are identical
/// across runs and sweep thread counts.
inline constexpr std::uint32_t kDefaultMask = kCatMp | kCatNet | kCatTransport | kCatSched;
inline constexpr std::uint32_t kAllMask =
    kCatMp | kCatNet | kCatTransport | kCatSim | kCatHost | kCatSched;

[[nodiscard]] constexpr Category category(Kind k) noexcept {
  switch (k) {
    case Kind::SendBegin:
    case Kind::SendEnd:
    case Kind::RecvEnd:
    case Kind::CollBegin:
    case Kind::CollEnd:
    case Kind::Compute:
    case Kind::Pack:
    case Kind::Unpack:
      return kCatMp;
    case Kind::MsgWire:
    case Kind::Frame:
      return kCatNet;
    case Kind::Retransmit:
    case Kind::FrameDrop:
    case Kind::CorruptReject:
    case Kind::DupDiscard:
      return kCatTransport;
    case Kind::EventDispatch:
      return kCatSim;
    case Kind::HostWork:
      return kCatHost;
    case Kind::SchedSubmit:
    case Kind::SchedPlace:
    case Kind::SchedStart:
    case Kind::SchedComplete:
      return kCatSched;
  }
  return kCatMp;  // unreachable
}

[[nodiscard]] constexpr const char* to_string(Kind k) noexcept {
  switch (k) {
    case Kind::SendBegin: return "send_begin";
    case Kind::SendEnd: return "send_end";
    case Kind::RecvEnd: return "recv_end";
    case Kind::CollBegin: return "coll_begin";
    case Kind::CollEnd: return "coll_end";
    case Kind::Compute: return "compute";
    case Kind::Pack: return "pack";
    case Kind::Unpack: return "unpack";
    case Kind::MsgWire: return "msg_wire";
    case Kind::Frame: return "frame";
    case Kind::Retransmit: return "retransmit";
    case Kind::FrameDrop: return "frame_drop";
    case Kind::CorruptReject: return "corrupt_reject";
    case Kind::DupDiscard: return "dup_discard";
    case Kind::EventDispatch: return "event_dispatch";
    case Kind::HostWork: return "host_work";
    case Kind::SchedSubmit: return "sched_submit";
    case Kind::SchedPlace: return "sched_place";
    case Kind::SchedStart: return "sched_start";
    case Kind::SchedComplete: return "sched_complete";
  }
  return "?";
}

struct Record {
  std::int64_t t_ns{0};    ///< simulated time of the occurrence (see table)
  std::int64_t bytes{0};   ///< payload or wire bytes involved
  std::int64_t aux0{0};    ///< kind-specific (see table)
  std::int64_t aux1{0};    ///< kind-specific (see table)
  std::uint64_t id{0};     ///< correlation id (message id / link sequence)
  Kind kind{Kind::SendBegin};
  std::int16_t rank{-1};   ///< owning rank (frame: source node)
  std::int16_t peer{-1};   ///< counterpart rank/node (-1: none)
  std::int32_t tag{0};     ///< message tag where applicable

  friend bool operator==(const Record&, const Record&) = default;
};

static_assert(sizeof(Record) <= 56, "Record is the emit-path unit; keep it one cache line");

}  // namespace pdc::trace
