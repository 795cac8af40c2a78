#include "persist/checkpoint.h"

#include <cstdio>
#include <ostream>

#include "util/json.h"

namespace metis::persist {

namespace {

using serialize::ByteReader;
using serialize::ByteWriter;

// --- primitive vector helpers --------------------------------------------
// Every get_* validates the element count against the bytes remaining
// before allocating, so a corrupted length prefix can never trigger a huge
// allocation (ByteReader::length's contract).

void put_i32_vec(ByteWriter& w, const std::vector<int>& v) {
  w.u64(v.size());
  for (int x : v) w.i32(x);
}

std::vector<int> get_i32_vec(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64());
  std::vector<int> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.i32());
  return v;
}

void put_f64_vec(ByteWriter& w, const std::vector<double>& v) {
  w.u64(v.size());
  for (double x : v) w.f64(x);
}

std::vector<double> get_f64_vec(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64());
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.f64());
  return v;
}

void put_u8_vec(ByteWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  for (std::uint8_t x : v) w.u8(x);
}

std::vector<std::uint8_t> get_u8_vec(ByteReader& r) {
  const std::uint64_t n = r.length(r.u64());
  std::vector<std::uint8_t> v;
  v.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(r.u8());
  return v;
}

// --- domain type codecs ---------------------------------------------------

void put_request(ByteWriter& w, const workload::Request& q) {
  w.i32(q.src);
  w.i32(q.dst);
  w.i32(q.start_slot);
  w.i32(q.end_slot);
  w.f64(q.rate);
  w.f64(q.value);
}

workload::Request get_request(ByteReader& r) {
  workload::Request q;
  q.src = r.i32();
  q.dst = r.i32();
  q.start_slot = r.i32();
  q.end_slot = r.i32();
  q.rate = r.f64();
  q.value = r.f64();
  return q;
}

void put_path(ByteWriter& w, const net::Path& p) { put_i32_vec(w, p.edges); }

net::Path get_path(ByteReader& r) { return net::Path{get_i32_vec(r)}; }

void put_solve_stats(ByteWriter& w, const lp::SolveStats& s) {
  w.i64(s.iterations);
  w.i32(s.factorizations);
  w.i32(s.presolve_removed_rows);
  w.i32(s.presolve_removed_cols);
  w.i32(s.warm_starts);
  w.i32(s.cold_starts);
  w.i32(s.basis_repairs);
  w.f64(s.solve_seconds);
}

lp::SolveStats get_solve_stats(ByteReader& r) {
  lp::SolveStats s;
  s.iterations = r.i64();
  s.factorizations = r.i32();
  s.presolve_removed_rows = r.i32();
  s.presolve_removed_cols = r.i32();
  s.warm_starts = r.i32();
  s.cold_starts = r.i32();
  s.basis_repairs = r.i32();
  s.solve_seconds = r.f64();
  return s;
}

void put_profit(ByteWriter& w, const core::ProfitBreakdown& p) {
  w.f64(p.revenue);
  w.f64(p.cost);
  w.f64(p.profit);
  w.i32(p.accepted);
}

core::ProfitBreakdown get_profit(ByteReader& r) {
  core::ProfitBreakdown p;
  p.revenue = r.f64();
  p.cost = r.f64();
  p.profit = r.f64();
  p.accepted = r.i32();
  return p;
}

void put_fault_stats(ByteWriter& w, const FaultStatsImage& s) {
  w.i32(s.injected);
  w.i32(s.network_changes);
  w.i32(s.repairs);
  w.i32(s.victims);
  w.i32(s.dropped);
  w.i32(s.rerouted);
  w.i32(s.shed_rounds);
  w.i32(s.surge_arrivals);
}

FaultStatsImage get_fault_stats(ByteReader& r) {
  FaultStatsImage s;
  s.injected = r.i32();
  s.network_changes = r.i32();
  s.repairs = r.i32();
  s.victims = r.i32();
  s.dropped = r.i32();
  s.rerouted = r.i32();
  s.shed_rounds = r.i32();
  s.surge_arrivals = r.i32();
  return s;
}

void put_metrics(ByteWriter& w, const telemetry::MetricsSnapshot& m) {
  w.u64(m.counters.size());
  for (const auto& [name, v] : m.counters) {
    w.str(name);
    w.i64(v);
  }
  w.u64(m.gauges.size());
  for (const auto& [name, v] : m.gauges) {
    w.str(name);
    w.f64(v);
  }
  w.u64(m.histograms.size());
  for (const auto& h : m.histograms) {
    w.str(h.name);
    put_f64_vec(w, h.bounds);
    put_f64_vec(w, h.samples);
  }
  w.u64(m.spans.size());
  for (const auto& [path, s] : m.spans) {
    w.str(path);
    w.u64(s.count);
    w.f64(s.total_seconds);
    w.f64(s.min_seconds);
    w.f64(s.max_seconds);
  }
}

telemetry::MetricsSnapshot get_metrics(ByteReader& r) {
  telemetry::MetricsSnapshot m;
  std::uint64_t n = r.length(r.u64());
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    m.counters.emplace_back(std::move(name), r.i64());
  }
  n = r.length(r.u64());
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string name = r.str();
    m.gauges.emplace_back(std::move(name), r.f64());
  }
  n = r.length(r.u64());
  for (std::uint64_t i = 0; i < n; ++i) {
    telemetry::MetricsSnapshot::HistogramImage h;
    h.name = r.str();
    h.bounds = get_f64_vec(r);
    h.samples = get_f64_vec(r);
    m.histograms.push_back(std::move(h));
  }
  n = r.length(r.u64());
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string path = r.str();
    telemetry::SpanStats s;
    s.count = r.u64();
    s.total_seconds = r.f64();
    s.min_seconds = r.f64();
    s.max_seconds = r.f64();
    m.spans.emplace_back(std::move(path), s);
  }
  return m;
}

void put_cache(ByteWriter& w, const net::PathCache::Dump& d) {
  w.u64(d.entries.size());
  for (const auto& e : d.entries) {
    w.i32(e.src);
    w.i32(e.dst);
    w.i32(e.k);
    w.i32(e.metric);
    w.u64(e.paths.size());
    for (const net::Path& p : e.paths) put_path(w, p);
  }
  w.u64(d.epoch);
  w.u64(d.hits);
  w.u64(d.misses);
  w.u64(d.stale);
}

net::PathCache::Dump get_cache(ByteReader& r) {
  net::PathCache::Dump d;
  const std::uint64_t n = r.length(r.u64());
  d.entries.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) {
    net::PathCache::Dump::Entry e;
    e.src = r.i32();
    e.dst = r.i32();
    e.k = r.i32();
    e.metric = r.i32();
    const std::uint64_t paths = r.length(r.u64());
    e.paths.reserve(static_cast<std::size_t>(paths));
    for (std::uint64_t p = 0; p < paths; ++p) e.paths.push_back(get_path(r));
    d.entries.push_back(std::move(e));
  }
  d.epoch = r.u64();
  d.hits = r.u64();
  d.misses = r.u64();
  d.stale = r.u64();
  return d;
}

void put_topology(ByteWriter& w, const TopologyState& t) {
  put_f64_vec(w, t.price);
  put_i32_vec(w, t.capacity_units);
  put_u8_vec(w, t.edge_enabled);
  put_u8_vec(w, t.node_enabled);
  w.u64(t.epoch);
}

TopologyState get_topology(ByteReader& r) {
  TopologyState t;
  t.price = get_f64_vec(r);
  t.capacity_units = get_i32_vec(r);
  t.edge_enabled = get_u8_vec(r);
  t.node_enabled = get_u8_vec(r);
  t.epoch = r.u64();
  return t;
}

ByteReader section_reader(const SnapshotReader& reader, std::uint32_t id) {
  const std::vector<std::uint8_t>& payload = reader.section(id);
  return ByteReader(payload.data(), payload.size(),
                    "section " + std::to_string(id) + " (" + section_name(id) +
                        ")");
}

CheckpointKind meta_kind(const SnapshotReader& reader) {
  ByteReader r = section_reader(reader, kSectionMeta);
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(CheckpointKind::Online) &&
      kind != static_cast<std::uint8_t>(CheckpointKind::MultiCycle)) {
    throw SnapshotError("snapshot '" + reader.source() +
                        "': unknown checkpoint kind " + std::to_string(kind));
  }
  return static_cast<CheckpointKind>(kind);
}

void require_kind(const SnapshotReader& reader, CheckpointKind expected) {
  const CheckpointKind kind = meta_kind(reader);
  if (kind != expected) {
    const auto name = [](CheckpointKind k) {
      return k == CheckpointKind::Online ? "online" : "multi-cycle";
    };
    throw SnapshotError("snapshot '" + reader.source() + "' is a " +
                        name(kind) + " checkpoint, expected " +
                        name(expected));
  }
}

}  // namespace

std::string section_name(std::uint32_t id) {
  switch (id) {
    case kSectionMeta: return "meta";
    case kSectionBatches: return "batches";
    case kSectionEntries: return "entries";
    case kSectionTopology: return "topology";
    case kSectionFaults: return "faults";
    case kSectionPathCache: return "path_cache";
    case kSectionTelemetry: return "telemetry";
    case kSectionCells: return "cells";
    default: return "unknown";
  }
}

std::vector<std::uint8_t> encode(const OnlineCheckpoint& ckpt) {
  SnapshotWriter writer;
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(CheckpointKind::Online));
    w.u64(ckpt.config_fingerprint);
    w.f64(ckpt.boundary_time);
    w.u64(ckpt.next_arrival);
    w.u64(ckpt.next_fault_event);
    w.i64(ckpt.repair_index);
    w.i64(ckpt.surge_index);
    w.f64(ckpt.oldest_queued);
    w.i32(ckpt.total_arrivals);
    w.i32(ckpt.total_accepted);
    writer.section(kSectionMeta, std::move(w).take());
  }
  {
    ByteWriter w;
    w.u64(ckpt.batches.size());
    for (const BatchState& b : ckpt.batches) {
      w.i32(b.batch);
      w.i32(b.arrivals);
      w.f64(b.flush_time);
      w.i32(b.accepted);
      w.f64(b.profit);
      w.f64(b.decide_ms);
      put_solve_stats(w, b.lp_stats);
    }
    writer.section(kSectionBatches, std::move(w).take());
  }
  {
    ByteWriter w;
    w.u64(ckpt.entries.size());
    for (const BookEntryState& e : ckpt.entries) {
      put_request(w, e.request);
      w.u8(static_cast<std::uint8_t>(e.status));
      put_path(w, e.path);
      w.boolean(e.was_committed);
    }
    writer.section(kSectionEntries, std::move(w).take());
  }
  {
    ByteWriter w;
    put_topology(w, ckpt.topology);
    writer.section(kSectionTopology, std::move(w).take());
  }
  {
    ByteWriter w;
    w.f64(ckpt.refunds.refunded);
    w.i32(ckpt.refunds.drops);
    put_fault_stats(w, ckpt.fault_stats);
    put_solve_stats(w, ckpt.lp_stats);
    writer.section(kSectionFaults, std::move(w).take());
  }
  {
    ByteWriter w;
    put_cache(w, ckpt.cache);
    writer.section(kSectionPathCache, std::move(w).take());
  }
  {
    ByteWriter w;
    put_metrics(w, ckpt.metrics);
    writer.section(kSectionTelemetry, std::move(w).take());
  }
  return writer.to_bytes();
}

OnlineCheckpoint decode_online(const SnapshotReader& reader) {
  require_kind(reader, CheckpointKind::Online);
  OnlineCheckpoint ckpt;
  {
    ByteReader r = section_reader(reader, kSectionMeta);
    r.u8();  // kind, checked above
    ckpt.config_fingerprint = r.u64();
    ckpt.boundary_time = r.f64();
    ckpt.next_arrival = r.u64();
    ckpt.next_fault_event = r.u64();
    ckpt.repair_index = r.i64();
    ckpt.surge_index = r.i64();
    ckpt.oldest_queued = r.f64();
    ckpt.total_arrivals = r.i32();
    ckpt.total_accepted = r.i32();
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionBatches);
    const std::uint64_t n = r.length(r.u64());
    ckpt.batches.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      BatchState b;
      b.batch = r.i32();
      b.arrivals = r.i32();
      b.flush_time = r.f64();
      b.accepted = r.i32();
      b.profit = r.f64();
      b.decide_ms = r.f64();
      b.lp_stats = get_solve_stats(r);
      ckpt.batches.push_back(std::move(b));
    }
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionEntries);
    const std::uint64_t n = r.length(r.u64());
    ckpt.entries.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      BookEntryState e;
      e.request = get_request(r);
      const std::uint8_t status = r.u8();
      if (status > 2) {
        r.fail("book entry status byte " + std::to_string(status) +
               " out of range");
      }
      e.status = status;
      e.path = get_path(r);
      e.was_committed = r.boolean();
      ckpt.entries.push_back(std::move(e));
    }
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionTopology);
    ckpt.topology = get_topology(r);
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionFaults);
    ckpt.refunds.refunded = r.f64();
    ckpt.refunds.drops = r.i32();
    ckpt.fault_stats = get_fault_stats(r);
    ckpt.lp_stats = get_solve_stats(r);
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionPathCache);
    ckpt.cache = get_cache(r);
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionTelemetry);
    ckpt.metrics = get_metrics(r);
    r.expect_done();
  }
  return ckpt;
}

std::vector<std::uint8_t> encode(const MultiCycleCheckpoint& ckpt) {
  SnapshotWriter writer;
  {
    ByteWriter w;
    w.u8(static_cast<std::uint8_t>(CheckpointKind::MultiCycle));
    w.u64(ckpt.config_fingerprint);
    w.i32(ckpt.cycles_done);
    w.i32(ckpt.num_policies);
    writer.section(kSectionMeta, std::move(w).take());
  }
  {
    ByteWriter w;
    put_metrics(w, ckpt.metrics);
    writer.section(kSectionTelemetry, std::move(w).take());
  }
  {
    ByteWriter w;
    w.u64(ckpt.cells.size());
    for (const CycleCellState& c : ckpt.cells) {
      w.i32(c.cycle);
      w.i32(c.policy);
      w.i32(c.offered_requests);
      put_profit(w, c.result);
      w.f64(c.decide_ms);
      w.f64(c.refunds);
      w.f64(c.net_profit);
      put_fault_stats(w, c.fault_stats);
    }
    writer.section(kSectionCells, std::move(w).take());
  }
  return writer.to_bytes();
}

MultiCycleCheckpoint decode_multi_cycle(const SnapshotReader& reader) {
  require_kind(reader, CheckpointKind::MultiCycle);
  MultiCycleCheckpoint ckpt;
  {
    ByteReader r = section_reader(reader, kSectionMeta);
    r.u8();  // kind, checked above
    ckpt.config_fingerprint = r.u64();
    ckpt.cycles_done = r.i32();
    ckpt.num_policies = r.i32();
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionTelemetry);
    ckpt.metrics = get_metrics(r);
    r.expect_done();
  }
  {
    ByteReader r = section_reader(reader, kSectionCells);
    const std::uint64_t n = r.length(r.u64());
    ckpt.cells.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
      CycleCellState c;
      c.cycle = r.i32();
      c.policy = r.i32();
      c.offered_requests = r.i32();
      c.result = get_profit(r);
      c.decide_ms = r.f64();
      c.refunds = r.f64();
      c.net_profit = r.f64();
      c.fault_stats = get_fault_stats(r);
      ckpt.cells.push_back(c);
    }
    r.expect_done();
  }
  return ckpt;
}

namespace {

template <typename Checkpoint>
void save_impl(const Checkpoint& ckpt, const std::string& path) {
  METIS_SPAN("persist.save");
  const telemetry::Stopwatch timer;
  const std::vector<std::uint8_t> bytes = encode(ckpt);
  write_bytes_atomic(bytes, path);
  telemetry::count("persist.saves");
  telemetry::count("persist.bytes", static_cast<std::int64_t>(bytes.size()));
  telemetry::observe("persist.save_ms", timer.ms());
}

}  // namespace

void save(const OnlineCheckpoint& ckpt, const std::string& path) {
  save_impl(ckpt, path);
}

void save(const MultiCycleCheckpoint& ckpt, const std::string& path) {
  save_impl(ckpt, path);
}

OnlineCheckpoint load_online(const std::string& path) {
  METIS_SPAN("persist.load");
  const telemetry::Stopwatch timer;
  const SnapshotReader reader = SnapshotReader::from_file(path);
  OnlineCheckpoint ckpt = decode_online(reader);
  telemetry::count("persist.loads");
  telemetry::observe("persist.load_ms", timer.ms());
  return ckpt;
}

MultiCycleCheckpoint load_multi_cycle(const std::string& path) {
  METIS_SPAN("persist.load");
  const telemetry::Stopwatch timer;
  const SnapshotReader reader = SnapshotReader::from_file(path);
  MultiCycleCheckpoint ckpt = decode_multi_cycle(reader);
  telemetry::count("persist.loads");
  telemetry::observe("persist.load_ms", timer.ms());
  return ckpt;
}

CheckpointKind kind_of(const SnapshotReader& reader) {
  return meta_kind(reader);
}

void write_debug_json(const SnapshotReader& reader, std::ostream& os) {
  const CheckpointKind kind = meta_kind(reader);
  os << "{\"kind\":"
     << (kind == CheckpointKind::Online ? "\"online\"" : "\"multi_cycle\"")
     << ",\"version\":" << kSnapshotVersion << ",\"sections\":[";
  bool first = true;
  for (std::uint32_t id : reader.section_ids()) {
    if (!first) os << ',';
    first = false;
    const std::vector<std::uint8_t>& payload = reader.section(id);
    os << "{\"id\":" << id << ",\"name\":";
    json::write_escaped(os, section_name(id));
    os << ",\"bytes\":" << payload.size() << ",\"crc32\":"
       << serialize::crc32(payload) << '}';
  }
  os << "],";
  char fp[32];
  if (kind == CheckpointKind::Online) {
    const OnlineCheckpoint ckpt = decode_online(reader);
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(ckpt.config_fingerprint));
    os << "\"meta\":{\"config_fingerprint\":\"" << fp
       << "\",\"boundary_time\":";
    json::write_number(os, ckpt.boundary_time);
    os << ",\"next_arrival\":" << ckpt.next_arrival
       << ",\"next_fault_event\":" << ckpt.next_fault_event
       << ",\"repair_index\":" << ckpt.repair_index
       << ",\"surge_index\":" << ckpt.surge_index << ",\"oldest_queued\":";
    json::write_number(os, ckpt.oldest_queued);
    os << ",\"total_arrivals\":" << ckpt.total_arrivals
       << ",\"total_accepted\":" << ckpt.total_accepted << '}';
    os << ",\"batches\":" << ckpt.batches.size()
       << ",\"entries\":" << ckpt.entries.size() << ",\"refunds\":";
    json::write_number(os, ckpt.refunds.refunded);
    os << ",\"lp_iterations\":" << ckpt.lp_stats.iterations
       << ",\"cache_entries\":" << ckpt.cache.entries.size()
       << ",\"topology_epoch\":" << ckpt.topology.epoch
       << ",\"telemetry_counters\":" << ckpt.metrics.counters.size();
  } else {
    const MultiCycleCheckpoint ckpt = decode_multi_cycle(reader);
    std::snprintf(fp, sizeof(fp), "0x%016llx",
                  static_cast<unsigned long long>(ckpt.config_fingerprint));
    double net = 0;
    for (const CycleCellState& c : ckpt.cells) net += c.net_profit;
    os << "\"meta\":{\"config_fingerprint\":\"" << fp
       << "\",\"cycles_done\":" << ckpt.cycles_done
       << ",\"num_policies\":" << ckpt.num_policies << '}'
       << ",\"cells\":" << ckpt.cells.size() << ",\"net_profit_sum\":";
    json::write_number(os, net);
    os << ",\"telemetry_counters\":" << ckpt.metrics.counters.size();
  }
  os << '}';
}

}  // namespace metis::persist
