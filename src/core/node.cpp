#include "src/core/node.hpp"

#include <algorithm>
#include <vector>

#include "src/core/router.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

Node::Node(NodeId id, MobilityPtr mobility, std::int64_t buffer_capacity,
           const Router* router, const BufferPolicy* policy,
           MessageArena& arena, const NodeEstimatorConfig& est_cfg,
           NodeHotState* hot)
    : id_(id),
      hot_(hot),
      mobility_(std::move(mobility)),
      buffer_(buffer_capacity, arena, hot, id),
      router_(router),
      policy_(policy),
      imt_(est_cfg.prior_mean_intermeeting, est_cfg.min_intermeeting_samples,
           est_cfg.imt_mode),
      dropped_(id) {
  DTN_REQUIRE(mobility_ != nullptr, "Node: mobility required");
  DTN_REQUIRE(router_ != nullptr, "Node: router required");
  DTN_REQUIRE(policy_ != nullptr, "Node: buffer policy required");
  // Mirror the estimator scalars into the SoA block (the row was added
  // by World::add_node before this constructor ran).
  if (hot_ != nullptr) imt_.bind_hot(hot_, id_);
}

void Node::unpin(MessageId id) {
  const auto it = std::find(pinned_.begin(), pinned_.end(), id);
  if (it != pinned_.end()) pinned_.erase(it);
}

bool Node::is_pinned(MessageId id) const {
  return std::find(pinned_.begin(), pinned_.end(), id) != pinned_.end();
}

bool Node::plan_admission(const Message& incoming, const PolicyContext& ctx,
                          const Message* newcomer_view,
                          std::vector<MessageId>* victims) const {
  DTN_REQUIRE(incoming.size > 0, "admission: message size must be positive");
  if (incoming.size > buffer_.capacity()) return false;  // can never fit

  std::int64_t free = buffer_.free();
  if (free >= incoming.size) return true;

  const Message* newcomer = newcomer_view != nullptr ? newcomer_view
                                                     : &incoming;
  // Work on pointers so the policy sees real Message objects.
  std::vector<const Message*> local;
  std::vector<const Message*>& droppable =
      ctx.scratch != nullptr ? ctx.scratch->droppable : local;
  droppable.clear();
  droppable.reserve(buffer_.count());
  for (const Message& m : buffer_.messages()) {
    if (!is_pinned(m.id)) droppable.push_back(&m);
  }

  while (free < incoming.size) {
    if (droppable.empty()) return false;  // nothing evictable left
    const Message* victim = policy_->choose_drop(droppable, newcomer, ctx);
    DTN_REQUIRE(victim != nullptr, "policy returned no drop victim");
    if (victim == newcomer) return false;  // newcomer loses, reject it
    free += victim->size;
    if (victims != nullptr) victims->push_back(victim->id);
    droppable.erase(std::find(droppable.begin(), droppable.end(), victim));
  }
  return true;
}

bool Node::would_admit(const Message& incoming, const PolicyContext& ctx,
                       const Message* newcomer_view) const {
  return plan_admission(incoming, ctx, newcomer_view, nullptr);
}

Node::AdmitResult Node::admit(Message incoming, const PolicyContext& ctx,
                              const Message* newcomer_view) {
  AdmitResult result;
  std::vector<MessageId> victims;
  if (!plan_admission(incoming, ctx, newcomer_view, &victims)) return result;
  const MessageId incoming_id = incoming.id;
  for (MessageId v : victims) {
    result.evicted.push_back(buffer_.take(v));
    prio_cache_.invalidate(v);
  }
  const bool ok = buffer_.try_insert(std::move(incoming));
  DTN_REQUIRE(ok, "admission plan did not free enough space");
  // A stale memo entry from an earlier tenure of this id must not shadow
  // the freshly admitted copy.
  prio_cache_.invalidate(incoming_id);
  result.admitted = true;
  return result;
}

namespace {

void write_sorted_id_set(snapshot::ArchiveWriter& out,
                         const std::unordered_set<MessageId>& s) {
  std::vector<MessageId> ids(s.begin(), s.end());
  std::sort(ids.begin(), ids.end());
  out.u64(ids.size());
  for (MessageId id : ids) out.u64(id);
}

void read_id_set(snapshot::ArchiveReader& in,
                 std::unordered_set<MessageId>& s) {
  s.clear();
  const std::uint64_t n = in.u64();
  for (std::uint64_t i = 0; i < n; ++i) s.insert(in.u64());
}

}  // namespace

void Node::save_state(snapshot::ArchiveWriter& out) const {
  out.begin_section("node");
  out.u32(id_);
  mobility_->save_state(out);
  buffer_.save_state(out);
  imt_.save_state(out);
  dropped_.save_state(out);
  write_sorted_id_set(out, delivered_);
  write_sorted_id_set(out, known_delivered_);
  out.u64(pinned_.size());
  for (MessageId id : pinned_) out.u64(id);  // pin order is kernel state
  out.boolean(radio_busy());
  prio_cache_.save_state(out);
  out.end_section();
}

void Node::load_state(snapshot::ArchiveReader& in) {
  in.begin_section("node");
  const NodeId id = in.u32();
  DTN_REQUIRE(id == id_, "node: snapshot id does not match this node");
  mobility_->load_state(in);
  buffer_.load_state(in);
  imt_.load_state(in);
  dropped_.load_state(in);
  read_id_set(in, delivered_);
  read_id_set(in, known_delivered_);
  pinned_.clear();
  const std::size_t n_pinned = in.count(snapshot::kTagged64Bytes);
  pinned_.reserve(n_pinned);
  for (std::size_t i = 0; i < n_pinned; ++i) pinned_.push_back(in.u64());
  set_radio_busy(in.boolean());
  if (in.version() >= 2) {
    prio_cache_.load_state(in);
  } else {
    // v1 predates the priority cache: start cold (epoch/stamp at their
    // construction values; priorities recompute on first use).
    prio_cache_.clear_transient();
  }
  in.end_section();
}

}  // namespace dtn
