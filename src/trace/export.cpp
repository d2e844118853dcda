#include "trace/export.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace pdc::trace {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Builds one traceEvents entry; fields are appended in a fixed order so
/// the output is byte-stable for a given record stream.
class EventWriter {
 public:
  explicit EventWriter(std::string& out) : out_(out) {}

  EventWriter& begin() {
    if (!first_) out_ += ",\n";
    first_ = false;
    out_ += "  {";
    field_first_ = true;
    return *this;
  }
  EventWriter& str(const char* key, const std::string& v) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\":\"";
    append_escaped(out_, v);
    out_ += '"';
    return *this;
  }
  EventWriter& num(const char* key, double v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%.3f", key, v);
    out_ += buf;
    return *this;
  }
  EventWriter& integer(const char* key, long long v) {
    sep();
    char buf[64];
    std::snprintf(buf, sizeof(buf), "\"%s\":%lld", key, v);
    out_ += buf;
    return *this;
  }
  EventWriter& raw(const char* key, const std::string& v) {
    sep();
    out_ += '"';
    out_ += key;
    out_ += "\":";
    out_ += v;
    return *this;
  }
  void end() { out_ += '}'; }

 private:
  void sep() {
    if (!field_first_) out_ += ',';
    field_first_ = false;
  }
  std::string& out_;
  bool first_{true};
  bool field_first_{true};
};

[[nodiscard]] double us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

[[nodiscard]] std::string coll_name(std::int64_t op) {
  switch (static_cast<CollOp>(op)) {
    case CollOp::Broadcast: return "broadcast";
    case CollOp::Barrier: return "barrier";
    case CollOp::GlobalSum: return "global_sum";
  }
  return "collective";
}

}  // namespace

std::string export_perfetto_json(std::span<const Record> records) {
  std::string out;
  out.reserve(records.size() * 96 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n";
  EventWriter w(out);

  // Track naming: process 0 holds one thread per rank, process 1 one thread
  // per link (assigned in (src, dst) order), process 2 one thread per
  // scheduler user (scheduler records carry the user in `rank`).
  int max_rank = -1;
  std::map<std::pair<int, int>, int> link_tid;
  std::set<int> users;
  for (const Record& r : records) {
    if (category(r.kind) == kCatSched) {
      users.insert(r.rank);
      continue;
    }
    if (r.rank > max_rank) max_rank = r.rank;
    if ((r.kind == Kind::SendBegin || r.kind == Kind::RecvEnd) && r.peer > max_rank) {
      max_rank = r.peer;
    }
    if (r.kind == Kind::Frame) link_tid.emplace(std::pair<int, int>{r.rank, r.peer}, 0);
  }
  {
    int next = 0;
    for (auto& [key, tid] : link_tid) tid = next++;
  }

  w.begin().str("ph", "M").str("name", "process_name").integer("pid", 0)
      .raw("args", "{\"name\":\"ranks\"}");
  w.end();
  if (!link_tid.empty()) {
    w.begin().str("ph", "M").str("name", "process_name").integer("pid", 1)
        .raw("args", "{\"name\":\"links\"}");
    w.end();
  }
  if (!users.empty()) {
    w.begin().str("ph", "M").str("name", "process_name").integer("pid", 2)
        .raw("args", "{\"name\":\"scheduler\"}");
    w.end();
  }
  for (int rk = 0; rk <= max_rank; ++rk) {
    w.begin().str("ph", "M").str("name", "thread_name").integer("pid", 0)
        .integer("tid", rk)
        .raw("args", "{\"name\":\"rank " + std::to_string(rk) + "\"}");
    w.end();
  }
  for (const auto& [key, tid] : link_tid) {
    w.begin().str("ph", "M").str("name", "thread_name").integer("pid", 1)
        .integer("tid", tid)
        .raw("args", "{\"name\":\"link " + std::to_string(key.first) + "->" +
                         std::to_string(key.second) + "\"}");
    w.end();
  }
  for (int user : users) {
    w.begin().str("ph", "M").str("name", "thread_name").integer("pid", 2)
        .integer("tid", user)
        .raw("args", "{\"name\":\"user " + std::to_string(user) + "\"}");
    w.end();
  }

  auto slice = [&](int rk, const std::string& name, std::int64_t t0, std::int64_t t1,
                   const std::string& args) {
    w.begin().str("ph", "X").str("name", name).integer("pid", 0).integer("tid", rk)
        .num("ts", us(t0)).num("dur", us(std::max<std::int64_t>(0, t1 - t0)));
    if (!args.empty()) w.raw("args", args);
    w.end();
  };
  auto instant = [&](int pid, int tid, const std::string& name, std::int64_t t) {
    w.begin().str("ph", "i").str("name", name).integer("pid", pid).integer("tid", tid)
        .num("ts", us(t)).str("s", "t");
    w.end();
  };
  auto job = [](const Record& r) { return "job " + std::to_string(r.tag); };

  for (const Record& r : records) {
    switch (r.kind) {
      case Kind::SendBegin:
        // Flow origin: ties the send slice to the matching recv.
        w.begin().str("ph", "s").str("cat", "msg").str("name", "msg")
            .integer("id", static_cast<long long>(r.id)).integer("pid", 0)
            .integer("tid", r.rank).num("ts", us(r.t_ns));
        w.end();
        break;
      case Kind::SendEnd:
        slice(r.rank, "send->" + std::to_string(r.peer), r.aux1, r.t_ns,
              "{\"bytes\":" + std::to_string(r.bytes) +
                  ",\"tag\":" + std::to_string(r.tag) + "}");
        break;
      case Kind::RecvEnd:
        if (r.aux0 > r.aux1) slice(r.rank, "recv-wait", r.aux1, r.aux0, "");
        slice(r.rank, "recv<-" + std::to_string(r.peer), r.aux0, r.t_ns,
              "{\"bytes\":" + std::to_string(r.bytes) +
                  ",\"tag\":" + std::to_string(r.tag) + "}");
        if (r.id != 0) {
          w.begin().str("ph", "f").str("cat", "msg").str("name", "msg")
              .integer("id", static_cast<long long>(r.id)).integer("pid", 0)
              .integer("tid", r.rank).num("ts", us(r.aux0)).str("bp", "e");
          w.end();
        }
        break;
      case Kind::Compute:
        slice(r.rank, "compute", r.t_ns, r.t_ns + r.aux0, "");
        break;
      case Kind::Pack:
        slice(r.rank, "pack", r.t_ns, r.t_ns + r.aux0, "");
        break;
      case Kind::Unpack:
        slice(r.rank, "unpack", r.t_ns, r.t_ns + r.aux0, "");
        break;
      case Kind::CollEnd:
        slice(r.rank, coll_name(r.aux0), r.aux1, r.t_ns, "");
        break;
      case Kind::Frame: {
        const int tid = link_tid[{r.rank, r.peer}];
        w.begin().str("ph", "X")
            .str("name", "frame " + std::to_string(r.rank) + "->" + std::to_string(r.peer))
            .integer("pid", 1).integer("tid", tid).num("ts", us(r.aux0))
            .num("dur", us(std::max<std::int64_t>(0, r.aux1 - r.aux0)))
            .raw("args", "{\"wire_bytes\":" + std::to_string(r.bytes) + "}");
        w.end();
        break;
      }
      case Kind::Retransmit:
        instant(0, r.rank, "retransmit", r.t_ns);
        break;
      case Kind::FrameDrop:
        instant(0, r.rank, "frame-drop", r.t_ns);
        break;
      case Kind::CorruptReject:
        instant(0, r.rank, "corrupt-reject", r.t_ns);
        break;
      case Kind::DupDiscard:
        instant(0, r.rank, "dup-discard", r.t_ns);
        break;
      case Kind::SchedSubmit:
        instant(2, r.rank, "submit " + job(r), r.t_ns);
        break;
      case Kind::SchedPlace:
        instant(2, r.rank, "place " + job(r), r.t_ns);
        break;
      case Kind::SchedStart:
        instant(2, r.rank, "start " + job(r), r.t_ns);
        break;
      case Kind::SchedComplete:
        w.begin().str("ph", "X").str("name", job(r)).integer("pid", 2).integer("tid", r.rank)
            .num("ts", us(r.aux0)).num("dur", us(std::max<std::int64_t>(0, r.t_ns - r.aux0)))
            .raw("args", "{\"ranks\":" + std::to_string(r.aux1) + "}");
        w.end();
        break;
      case Kind::CollBegin:
      case Kind::MsgWire:
      case Kind::EventDispatch:
      case Kind::HostWork:
        break;  // covered by the matching End record / analysis-only kinds
    }
  }

  out += "\n]}\n";
  return out;
}

std::string export_csv(std::span<const Record> records) {
  std::string out = "kind,t_ns,rank,peer,tag,bytes,id,aux0,aux1\n";
  out.reserve(out.size() + records.size() * 48);
  char line[192];
  for (const Record& r : records) {
    std::snprintf(line, sizeof(line), "%s,%lld,%d,%d,%d,%lld,%llu,%lld,%lld\n",
                  to_string(r.kind), static_cast<long long>(r.t_ns),
                  static_cast<int>(r.rank), static_cast<int>(r.peer), r.tag,
                  static_cast<long long>(r.bytes),
                  static_cast<unsigned long long>(r.id),
                  static_cast<long long>(r.aux0), static_cast<long long>(r.aux1));
    out += line;
  }
  return out;
}

// -- minimal JSON parser for shape validation --------------------------------

namespace {

struct JValue {
  enum class T { Null, Bool, Num, Str, Arr, Obj };
  T t{T::Null};
  bool b{false};
  double num{0};
  std::string str;
  std::vector<JValue> arr;
  std::vector<std::pair<std::string, JValue>> obj;

  [[nodiscard]] const JValue* find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  [[nodiscard]] bool parse(JValue& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing content");
    return true;
  }
  [[nodiscard]] const std::string& error() const { return err_; }

 private:
  bool fail(const char* what) {
    if (err_.empty()) {
      err_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }
  [[nodiscard]] bool match(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool literal(const char* word, JValue& out, JValue v) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= s_.size() || s_[pos_] != *p) return fail("bad literal");
    }
    out = std::move(v);
    return true;
  }
  bool string(std::string& out) {
    if (!match('"')) return fail("expected string");
    out.clear();
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= s_.size()) return fail("bad escape");
        char e = s_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("bad \\u escape");
            pos_ += 4;       // validated for length only; content is opaque
            out += '?';
            break;
          }
          default: return fail("bad escape");
        }
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }
  bool number(JValue& out) {
    const std::size_t start = pos_;
    if (match('-')) {}
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return fail("expected number");
    out.t = JValue::T::Num;
    out.num = std::strtod(s_.c_str() + start, nullptr);
    return true;
  }
  bool value(JValue& out) {
    if (++depth_ > 64) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    bool ok = false;
    switch (s_[pos_]) {
      case '{': ok = object(out); break;
      case '[': ok = array(out); break;
      case '"':
        out.t = JValue::T::Str;
        ok = string(out.str);
        break;
      case 't': {
        JValue v;
        v.t = JValue::T::Bool;
        v.b = true;
        ok = literal("true", out, std::move(v));
        break;
      }
      case 'f': {
        JValue v;
        v.t = JValue::T::Bool;
        ok = literal("false", out, std::move(v));
        break;
      }
      case 'n': ok = literal("null", out, JValue{}); break;
      default: ok = number(out); break;
    }
    --depth_;
    return ok;
  }
  bool object(JValue& out) {
    out.t = JValue::T::Obj;
    if (!match('{')) return fail("expected object");
    skip_ws();
    if (match('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!match(':')) return fail("expected ':'");
      JValue v;
      if (!value(v)) return false;
      out.obj.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (match('}')) return true;
      if (!match(',')) return fail("expected ',' or '}'");
    }
  }
  bool array(JValue& out) {
    out.t = JValue::T::Arr;
    if (!match('[')) return fail("expected array");
    skip_ws();
    if (match(']')) return true;
    while (true) {
      JValue v;
      if (!value(v)) return false;
      out.arr.push_back(std::move(v));
      skip_ws();
      if (match(']')) return true;
      if (!match(',')) return fail("expected ',' or ']'");
    }
  }

  const std::string& s_;
  std::size_t pos_{0};
  int depth_{0};
  std::string err_;
};

}  // namespace

bool validate_json(const std::string& json, std::string* error) {
  JValue root;
  Parser p(json);
  if (!p.parse(root)) {
    if (error != nullptr) *error = p.error();
    return false;
  }
  return true;
}

ValidationResult validate_perfetto_json(const std::string& json) {
  ValidationResult res;
  JValue root;
  Parser p(json);
  if (!p.parse(root)) {
    res.error = "parse error: " + p.error();
    return res;
  }
  if (root.t != JValue::T::Obj) {
    res.error = "top level is not an object";
    return res;
  }
  const JValue* events = root.find("traceEvents");
  if (events == nullptr || events->t != JValue::T::Arr) {
    res.error = "missing traceEvents array";
    return res;
  }
  std::set<double> flow_starts;
  std::set<double> flow_ends;
  for (std::size_t i = 0; i < events->arr.size(); ++i) {
    const JValue& e = events->arr[i];
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (e.t != JValue::T::Obj) {
      res.error = at + " is not an object";
      return res;
    }
    const JValue* ph = e.find("ph");
    if (ph == nullptr || ph->t != JValue::T::Str || ph->str.empty()) {
      res.error = at + " has no ph";
      return res;
    }
    auto need_num = [&](const char* key) {
      const JValue* v = e.find(key);
      if (v == nullptr || v->t != JValue::T::Num) {
        res.error = at + " (ph=" + ph->str + ") missing numeric " + key;
        return false;
      }
      return true;
    };
    if (ph->str == "X") {
      if (!need_num("ts") || !need_num("dur") || !need_num("pid") || !need_num("tid")) {
        return res;
      }
      if (e.find("dur")->num < 0) {
        res.error = at + " has negative dur";
        return res;
      }
      const JValue* name = e.find("name");
      if (name != nullptr && name->t == JValue::T::Str && name->str.starts_with("job ")) {
        ++res.jobs;
      }
    } else if (ph->str == "s" || ph->str == "f") {
      if (!need_num("ts") || !need_num("id")) return res;
      (ph->str == "s" ? flow_starts : flow_ends).insert(e.find("id")->num);
      ++res.flows;
    } else if (ph->str == "i") {
      if (!need_num("ts")) return res;
    } else if (ph->str != "M") {
      res.error = at + " has unexpected ph '" + ph->str + "'";
      return res;
    }
  }
  for (double id : flow_starts) {
    if (flow_ends.find(id) == flow_ends.end()) {
      res.error = "flow id " + std::to_string(id) + " starts but never finishes";
      return res;
    }
  }
  res.events = events->arr.size();
  res.ok = true;
  return res;
}

}  // namespace pdc::trace
