// BufferPolicy: the interface every buffer-management strategy implements
// (the paper's comparison subjects: FIFO, Spray-and-Wait-O, -C, SDSRP).
//
// A policy answers two questions (Algorithm 1):
//   * when a contact cannot carry everything, which message goes first?
//   * when the buffer overflows, which message — resident or newcomer —
//     is dropped?
#pragma once

#include <utility>
#include <vector>

#include "src/core/message.hpp"
#include "src/core/types.hpp"

namespace dtn {

class Node;
class GlobalRegistry;
struct NodeHotState;

namespace snapshot {
class ArchiveWriter;
class ArchiveReader;
}  // namespace snapshot

/// Reusable lists for candidate selection, so that once they have grown
/// to their working size, rating and ranking candidates allocates
/// nothing. `World` owns one and hands it out through
/// PolicyContext::scratch; a context without one (a standalone node)
/// makes each user fall back to a local list. Each list has one user,
/// and no user calls another user of the same list:
///   spray, ranked — Router::next_to_send's candidate lists;
///   relay         — routing::first_admittable's hypothetical copy;
///   keyed         — ScalarBufferPolicy::order_for_sending's sort keys;
///   droppable     — Node::plan_admission's eviction candidates.
struct SchedulingScratch {
  std::vector<const Message*> spray;
  std::vector<const Message*> ranked;
  Message relay;
  std::vector<std::pair<double, const Message*>> keyed;
  std::vector<const Message*> droppable;
};

/// Context handed to policies and routers: read-only inputs, plus the
/// scratch lists candidate selection reuses.
struct PolicyContext {
  SimTime now = 0.0;
  std::size_t n_nodes = 0;                 ///< N, network size
  const Node* node = nullptr;              ///< owner of the buffer at hand
  const GlobalRegistry* oracle = nullptr;  ///< ground truth (oracle policies)
  /// Priority memoization (WorldConfig::priority_cache): when set,
  /// cache-safe policies route resident-message priorities through
  /// `node`'s PriorityCache; `priority_refresh_s` bounds how long a
  /// value survives pure time decay (0 = same-instant reuse only, which
  /// is decision-identical to recomputing).
  bool cache_enabled = false;
  double priority_refresh_s = 0.0;
  /// World SoA block (SDSRP estimator mirrors, DESIGN.md §16). When set,
  /// priority kernels read `hot_mean_intermeeting(*hot, node->id(), now)`
  /// — bit-identical to the estimator member function — instead of
  /// chasing the per-node estimator object. Null for standalone nodes.
  const NodeHotState* hot = nullptr;
  /// The owning World's scheduling scratch; null for standalone nodes.
  SchedulingScratch* scratch = nullptr;

  /// Same context viewed from another node's buffer.
  PolicyContext viewed_from(const Node& other) const {
    PolicyContext c = *this;
    c.node = &other;
    return c;
  }
};

class BufferPolicy {
 public:
  virtual ~BufferPolicy() = default;

  virtual const char* name() const = 0;

  /// Sorts candidates most-preferred-to-send first. Must be deterministic
  /// (ties broken by message id).
  virtual void order_for_sending(std::vector<const Message*>& msgs,
                                 const PolicyContext& ctx) const = 0;

  /// Chooses the drop victim among droppable resident messages plus an
  /// optional newcomer. Returns a pointer to one element of `droppable`
  /// or `newcomer`. Preconditions: at least one candidate exists.
  virtual const Message* choose_drop(
      const std::vector<const Message*>& droppable, const Message* newcomer,
      const PolicyContext& ctx) const = 0;

  /// True if this policy's decisions are a pure deterministic function of
  /// (message, ctx.node state, ctx.now) with a *total*, set-independent
  /// ordering — the contract that makes per-node priority memoization and
  /// send-order snapshots sound. False (the default) for policies that
  /// consume shared mutable state per evaluation (RandomPolicy's RNG
  /// stream) or read global inputs with no node-local invalidation signal
  /// (oracle/registry-backed policies).
  virtual bool cache_safe() const { return false; }

  /// True if nodes under this policy maintain and gossip the SDSRP
  /// dropped-list structure (Fig. 5).
  virtual bool uses_dropped_list() const { return false; }

  /// True if nodes additionally reject re-receiving a message in their
  /// own drop record (the paper's duplication-avoidance rule).
  virtual bool rejects_previously_dropped() const {
    return uses_dropped_list();
  }

  /// Snapshot/restore of policy-owned state. Stateless policies (the
  /// default) write and read nothing.
  virtual void save_state(snapshot::ArchiveWriter& out) const { (void)out; }
  virtual void load_state(snapshot::ArchiveReader& in) { (void)in; }
};

/// Helper base for policies expressible as one scalar priority per message:
/// send highest first, drop lowest (among residents and newcomer).
/// Ties are broken toward the smaller message id, newcomer losing ties
/// against residents with equal priority and id ordering applied last.
class ScalarBufferPolicy : public BufferPolicy {
 public:
  /// Larger = more valuable (sent earlier, dropped later).
  virtual double priority(const Message& m, const PolicyContext& ctx) const = 0;

  /// `priority(m, ctx)` memoized through ctx.node's PriorityCache when
  /// the context enables it and the policy is cache_safe(). Only call
  /// this for messages *resident* in ctx.node's buffer — the cache is
  /// keyed by message id, and only residents receive invalidation events;
  /// newcomers under admission must be rated with plain priority().
  double cached_priority(const Message& m, const PolicyContext& ctx) const;

  void order_for_sending(std::vector<const Message*>& msgs,
                         const PolicyContext& ctx) const override;
  const Message* choose_drop(const std::vector<const Message*>& droppable,
                             const Message* newcomer,
                             const PolicyContext& ctx) const override;
};

}  // namespace dtn
