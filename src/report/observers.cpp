#include "src/report/observers.hpp"

#include <algorithm>
#include <sstream>

#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

// --- DeliveredMessagesReport ---

void DeliveredMessagesReport::on_delivery(const Message& copy, NodeId from,
                                          NodeId to, SimTime now) {
  Row r;
  r.id = copy.id;
  r.source = copy.source;
  r.destination = to;
  r.last_hop = from;
  r.created = copy.created;
  r.delivered_at = now;
  r.hops = copy.hops + 1;
  rows_.push_back(r);
}

Table DeliveredMessagesReport::to_table() const {
  Table t({"id", "src", "dst", "last_hop", "hops", "latency_s", "created_s",
           "delivered_s"});
  for (const Row& r : rows_) {
    t.add_row({static_cast<std::int64_t>(r.id),
               static_cast<std::int64_t>(r.source),
               static_cast<std::int64_t>(r.destination),
               static_cast<std::int64_t>(r.last_hop),
               static_cast<std::int64_t>(r.hops),
               r.delivered_at - r.created, r.created, r.delivered_at});
  }
  return t;
}

double DeliveredMessagesReport::latency_quantile(double q) const {
  DTN_REQUIRE(!rows_.empty(), "latency_quantile: no deliveries");
  std::vector<double> latencies;
  latencies.reserve(rows_.size());
  for (const Row& r : rows_) latencies.push_back(r.delivered_at - r.created);
  return quantile(std::move(latencies), q);
}

void DeliveredMessagesReport::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("delivered-report");
  out.u64(rows_.size());
  for (const Row& r : rows_) {
    out.u64(r.id);
    out.u32(r.source);
    out.u32(r.destination);
    out.u32(r.last_hop);
    out.f64(r.created);
    out.f64(r.delivered_at);
    out.i64(r.hops);
  }
  out.end_section();
}

void DeliveredMessagesReport::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("delivered-report");
  rows_.clear();
  // id, source, destination, last hop, created, delivered at, hops
  const std::size_t n = in.count(4 * snapshot::kTagged64Bytes +
                                 3 * snapshot::kTaggedU32Bytes);
  rows_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Row r;
    r.id = in.u64();
    r.source = in.u32();
    r.destination = in.u32();
    r.last_hop = in.u32();
    r.created = in.f64();
    r.delivered_at = in.f64();
    r.hops = static_cast<int>(in.i64());
    rows_.push_back(r);
  }
  in.end_section();
}

// --- DelayCdfReport ---

DelayCdfReport::DelayCdfReport(double hist_lo, double hist_hi,
                               std::size_t hist_bins)
    : hist_(hist_lo, hist_hi, hist_bins) {}

void DelayCdfReport::on_message_created(const Message& m, SimTime now) {
  (void)m;
  (void)now;
  ++created_;
}

void DelayCdfReport::on_delivery(const Message& copy, NodeId from, NodeId to,
                                 SimTime now) {
  (void)from;
  (void)to;
  const double delay = now - copy.created;
  delays_.push_back(delay);
  hist_.add(delay);
}

void DelayCdfReport::merge(const DelayCdfReport& other) {
  created_ += other.created_;
  delays_.insert(delays_.end(), other.delays_.begin(), other.delays_.end());
  hist_.merge(other.hist_);
}

// --- ContactReport ---

void ContactReport::on_link_up(const NodePair& p, SimTime now) {
  ++contacts_;
  up_since_[p] = now;
  const auto it = last_end_.find(p);
  if (it != last_end_.end() && now > it->second) {
    gaps_.push_back(now - it->second);
  }
}

void ContactReport::on_link_down(const NodePair& p, SimTime now) {
  const auto it = up_since_.find(p);
  if (it != up_since_.end()) {
    durations_.push_back(now - it->second);
    up_since_.erase(it);
  }
  last_end_[p] = now;
}

Table ContactReport::to_table() const {
  RunningStats dur, gap;
  for (double d : durations_) dur.add(d);
  for (double g : gaps_) gap.add(g);
  Table t({"metric", "value"});
  t.add_row({std::string("contacts"), static_cast<std::int64_t>(contacts_)});
  t.add_row({std::string("completed_contacts"),
             static_cast<std::int64_t>(durations_.size())});
  t.add_row({std::string("mean_contact_duration_s"), dur.mean()});
  t.add_row({std::string("max_contact_duration_s"), dur.max()});
  t.add_row({std::string("intermeeting_samples"),
             static_cast<std::int64_t>(gaps_.size())});
  t.add_row({std::string("mean_intermeeting_s"), gap.mean()});
  if (!gaps_.empty()) {
    const ExponentialFit fit = fit_exponential(gaps_);
    t.add_row({std::string("fitted_lambda"), fit.lambda});
    t.add_row({std::string("logCCDF_R2"), fit.r_squared});
  }
  return t;
}

// --- BufferOccupancyReport ---

BufferOccupancyReport::BufferOccupancyReport(double interval)
    : interval_(interval), next_(interval) {
  DTN_REQUIRE(interval > 0.0, "occupancy report: bad interval");
}

void BufferOccupancyReport::on_step_end(const World& world) {
  if (world.now() + 1e-9 < next_) return;
  next_ += interval_;
  Sample s;
  s.t = world.now();
  for (NodeId id = 0; id < world.node_count(); ++id) {
    const double occ = world.node(id).buffer().occupancy();
    s.mean += occ;
    s.max = std::max(s.max, occ);
  }
  s.mean /= static_cast<double>(world.node_count());
  samples_.push_back(s);
}

Table BufferOccupancyReport::to_table() const {
  Table t({"t_s", "mean_occupancy", "max_occupancy"});
  for (const Sample& s : samples_) t.add_row({s.t, s.mean, s.max});
  return t;
}

// --- EventLog ---

void EventLog::log(SimTime t, const std::string& kind,
                   const std::string& detail) {
  std::ostringstream os;
  os << t << ' ' << kind << ' ' << detail;
  lines_.push_back(os.str());
}

void EventLog::on_message_created(const Message& m, SimTime now) {
  log(now, "CREATE",
      "m" + std::to_string(m.id) + " " + std::to_string(m.source) + "->" +
          std::to_string(m.destination));
}

void EventLog::on_delivery(const Message& copy, NodeId from, NodeId to,
                           SimTime now) {
  log(now, "DELIVER",
      "m" + std::to_string(copy.id) + " " + std::to_string(from) + "->" +
          std::to_string(to) + " hops=" + std::to_string(copy.hops + 1));
}

void EventLog::on_transfer_started(const Transfer& t) {
  log(t.started, "SEND",
      "m" + std::to_string(t.msg) + " " + std::to_string(t.from) + "->" +
          std::to_string(t.to));
}

void EventLog::on_transfer_completed(const Transfer& t, bool delivered) {
  log(t.eta, "RECV",
      "m" + std::to_string(t.msg) + " " + std::to_string(t.from) + "->" +
          std::to_string(t.to) + (delivered ? " final" : " relay"));
}

void EventLog::on_transfer_aborted(const Transfer& t) {
  log(t.eta, "ABORT",
      "m" + std::to_string(t.msg) + " " + std::to_string(t.from) + "->" +
          std::to_string(t.to));
}

void EventLog::on_drop(NodeId node, const Message& m, SimTime now) {
  log(now, "DROP", "m" + std::to_string(m.id) + " @" + std::to_string(node));
}

void EventLog::on_ttl_expired(NodeId node, const Message& m, SimTime now) {
  log(now, "EXPIRE", "m" + std::to_string(m.id) + " @" + std::to_string(node));
}

void EventLog::on_link_up(const NodePair& p, SimTime now) {
  log(now, "UP",
      std::to_string(p.first) + "<->" + std::to_string(p.second));
}

void EventLog::on_link_down(const NodePair& p, SimTime now) {
  log(now, "DOWN",
      std::to_string(p.first) + "<->" + std::to_string(p.second));
}

std::size_t EventLog::count_kind(const std::string& kind) const {
  std::size_t n = 0;
  for (const std::string& line : lines_) {
    // kind is the second space-separated field.
    const auto sp1 = line.find(' ');
    if (sp1 == std::string::npos) continue;
    const auto sp2 = line.find(' ', sp1 + 1);
    const auto field = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (field == kind) ++n;
  }
  return n;
}

}  // namespace dtn
