#include "src/core/node.hpp"

#include <algorithm>
#include <iterator>
#include <vector>

#include "src/core/router.hpp"
#include "src/snapshot/archive.hpp"
#include "src/util/error.hpp"

namespace dtn {

Node::Node(NodeId id, MobilityPtr mobility, std::int64_t buffer_capacity,
           const Router* router, const BufferPolicy* policy,
           const NodeEstimatorConfig& est_cfg, NodeHotState* hot)
    : id_(id),
      hot_(hot),
      mobility_(std::move(mobility)),
      buffer_(buffer_capacity, hot, id),
      router_(router),
      policy_(policy),
      imt_(est_cfg.prior_mean_intermeeting, est_cfg.min_intermeeting_samples,
           est_cfg.imt_mode),
      dropped_(id) {
  DTN_REQUIRE(mobility_ != nullptr, "Node: mobility required");
  DTN_REQUIRE(router_ != nullptr, "Node: router required");
  DTN_REQUIRE(policy_ != nullptr, "Node: buffer policy required");
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

void Node::learn_delivered_from(const Node& other) {
  const std::vector<MessageId>& theirs = other.known_delivered_;
  if (std::includes(known_delivered_.begin(), known_delivered_.end(),
                    theirs.begin(), theirs.end())) {
    return;  // nothing new: the common case once gossip has converged
  }
  std::vector<MessageId> merged;
  merged.reserve(known_delivered_.size() + theirs.size());
  std::set_union(known_delivered_.begin(), known_delivered_.end(),
                 theirs.begin(), theirs.end(), std::back_inserter(merged));
  known_delivered_.swap(merged);
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

void write_id_set(snapshot::ArchiveWriter& out,
                  const std::vector<MessageId>& ids) {
  out.u64(ids.size());
  for (MessageId id : ids) out.u64(id);
}

void read_id_set(snapshot::ArchiveReader& in, std::vector<MessageId>& ids) {
  ids.clear();
  const std::size_t n = in.count(snapshot::kTagged64Bytes);
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const MessageId id = in.u64();
    // A set is saved strictly ascending; a repeat or a step back would
    // restore a node that re-saves other bytes than it loaded.
    DTN_REQUIRE(ids.empty() || id > ids.back(),
                "node: delivered ids repeated or out of order");
    ids.push_back(id);
  }
}

}  // namespace

void Node::save_state(snapshot::ArchiveWriter& out,
                      const sdsrp::DropRecordTable* drops) const {
  out.begin_section("node");
  out.u32(id_);
  mobility_->save_state(out);
  buffer_.save_state(out);
  imt_.save_state(out);
  dropped_.save_state(out, drops);
  write_id_set(out, delivered_);
  write_id_set(out, known_delivered_);
  out.u64(pinned_.size());
  for (MessageId id : pinned_) out.u64(id);  // pin order is kernel state
  out.boolean(radio_busy());
  prio_cache_.save_state(out);
  out.end_section();
}

void Node::load_state(snapshot::ArchiveReader& in,
                      sdsrp::DropRecordTable* drops) {
  in.begin_section("node");
  const NodeId id = in.u32();
  DTN_REQUIRE(id == id_, "node: snapshot id does not match this node");
  mobility_->load_state(in);
  buffer_.load_state(in);
  imt_.load_state(in);
  dropped_.load_state(in, drops);
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
