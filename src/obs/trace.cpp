#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>

#include "common/strings.h"

namespace erasmus::obs {

const char* to_string(Subsystem s) {
  switch (s) {
    case Subsystem::kRunner: return "runner";
    case Subsystem::kService: return "service";
    case Subsystem::kWindow: return "window";
    case Subsystem::kOverlay: return "overlay";
    case Subsystem::kDevice: return "device";
    case Subsystem::kEnergy: return "energy";
    case Subsystem::kAdversary: return "adversary";
  }
  return "?";
}

uint32_t parse_subsystem_filter(const std::string& csv) {
  uint32_t mask = 0;
  size_t begin = 0;
  while (begin <= csv.size()) {
    const size_t comma = std::min(csv.find(',', begin), csv.size());
    const std::string name = csv.substr(begin, comma - begin);
    bool known = false;
    for (size_t i = 0; i < kSubsystemCount; ++i) {
      if (name == to_string(static_cast<Subsystem>(i))) {
        mask |= 1u << i;
        known = true;
        break;
      }
    }
    if (!known) {
      throw std::invalid_argument(
          "trace filter: unknown subsystem '" + name +
          "' (expected a comma-separated subset of "
          "runner,service,window,overlay,device,energy,adversary)");
    }
    begin = comma + 1;
  }
  return mask;
}

std::string TraceValue::to_json() const {
  switch (kind_) {
    case Kind::kU64: return std::to_string(u64_);
    case Kind::kI64: return std::to_string(i64_);
    case Kind::kF64: return format_double(f64_);
    case Kind::kStr: return json_quote(str_);
  }
  return "null";
}

// --- TraceShard --------------------------------------------------------------

void TraceShard::emit(TraceEvent event) {
  uint32_t& count = emitted_[event.actor];
  if (count >= quota_) {
    ++dropped_;
    return;
  }
  ++count;
  events_.push_back(std::move(event));
}

// --- TraceRecorder -----------------------------------------------------------

TraceRecorder::TraceRecorder(TraceConfig config) : config_(config) {}

void TraceRecorder::append(TraceEvent event) {
  if (events_.size() >= config_.max_events) {
    ++dropped_;
    return;
  }
  events_.push_back(std::move(event));
}

void TraceRecorder::emit(TraceEvent event) {
  if (!enabled(event.sub)) return;
  append(std::move(event));
}

void TraceRecorder::span_begin(Subsystem sub, sim::Time at, std::string name,
                               TraceArgs args, uint32_t actor) {
  emit({at, actor, sub, TraceKind::kSpanBegin, std::move(name),
        std::move(args)});
}

void TraceRecorder::span_end(Subsystem sub, sim::Time at, std::string name,
                             TraceArgs args, uint32_t actor) {
  emit({at, actor, sub, TraceKind::kSpanEnd, std::move(name),
        std::move(args)});
}

void TraceRecorder::instant(Subsystem sub, sim::Time at, std::string name,
                            TraceArgs args, uint32_t actor) {
  emit({at, actor, sub, TraceKind::kInstant, std::move(name),
        std::move(args)});
}

void TraceRecorder::attach_shards(size_t n) {
  merge_shards();
  shards_.clear();
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    shards_.emplace_back(new TraceShard(config_.per_actor_quota));
  }
}

TraceShard* TraceRecorder::shard(size_t i) {
  if (!enabled(Subsystem::kDevice)) return nullptr;
  return i < shards_.size() ? shards_[i].get() : nullptr;
}

void TraceRecorder::merge_shards() {
  std::vector<TraceEvent> drained;
  for (const auto& shard : shards_) {
    drained.insert(drained.end(),
                   std::make_move_iterator(shard->events_.begin()),
                   std::make_move_iterator(shard->events_.end()));
    shard->events_.clear();
    shard->emitted_.clear();  // fresh per-actor quota for the next interval
    dropped_ += shard->dropped_;
    shard->dropped_ = 0;
  }
  if (drained.empty()) return;
  // Ties in (time, actor) can only come from one shard (an actor's events
  // all live where its device lives), so stable sort preserves per-actor
  // emission order and the result is partition-independent.
  std::stable_sort(drained.begin(), drained.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.actor < b.actor;
                   });
  for (auto& event : drained) append(std::move(event));
}

uint64_t TraceRecorder::dropped() const {
  uint64_t total = dropped_;
  for (const auto& shard : shards_) total += shard->dropped_;
  return total;
}

namespace {

/// Chrome timestamps are microseconds; keep sub-microsecond precision as a
/// decimal fraction. Integral up to 2^53 ns, so exact for any sim run.
std::string chrome_ts(sim::Time at) {
  return format_double(static_cast<double>(at.ns()) / 1e3);
}

const char* chrome_phase(TraceKind kind) {
  switch (kind) {
    case TraceKind::kSpanBegin: return "B";
    case TraceKind::kSpanEnd: return "E";
    case TraceKind::kInstant: return "i";
  }
  return "i";
}

/// Coordinator renders as tid 0, device actors as id + 1.
uint64_t chrome_tid(uint32_t actor) {
  return actor == kCoordinatorActor ? 0 : static_cast<uint64_t>(actor) + 1;
}

void write_args_object(std::ostream& out, const TraceArgs& args) {
  out << "{";
  for (size_t i = 0; i < args.size(); ++i) {
    out << (i ? "," : "") << "\"" << json_escape(args[i].first)
        << "\":" << args[i].second.to_json();
  }
  out << "}";
}

}  // namespace

void TraceRecorder::write_chrome_trace(std::ostream& out) const {
  out << "{\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"thread_name\","
         "\"args\":{\"name\":\"coordinator\"}}";
  for (const TraceEvent& e : events_) {
    out << ",\n{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
        << to_string(e.sub) << "\",\"ph\":\"" << chrome_phase(e.kind)
        << "\",\"ts\":" << chrome_ts(e.at) << ",\"pid\":0,\"tid\":"
        << chrome_tid(e.actor);
    if (e.kind == TraceKind::kInstant) out << ",\"s\":\"t\"";
    if (!e.args.empty()) {
      out << ",\"args\":";
      write_args_object(out, e.args);
    }
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"clock\":\""
         "sim_ns\",\"dropped_events\":"
      << dropped() << "}}\n";
  out.flush();
}

void TraceRecorder::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& e : events_) {
    out << "{\"at_ns\":" << e.at.ns() << ",\"actor\":";
    if (e.actor == kCoordinatorActor) {
      out << "\"coordinator\"";
    } else {
      out << e.actor;
    }
    out << ",\"sub\":\"" << to_string(e.sub) << "\",\"kind\":\"";
    switch (e.kind) {
      case TraceKind::kSpanBegin: out << "span_begin"; break;
      case TraceKind::kSpanEnd: out << "span_end"; break;
      case TraceKind::kInstant: out << "instant"; break;
    }
    out << "\",\"name\":\"" << json_escape(e.name) << "\",\"args\":";
    write_args_object(out, e.args);
    out << "}\n";
  }
  out.flush();
}

namespace {
TraceRecorder* g_trace = nullptr;
}  // namespace

TraceRecorder* global_trace() { return g_trace; }
void set_global_trace(TraceRecorder* recorder) { g_trace = recorder; }

}  // namespace erasmus::obs
