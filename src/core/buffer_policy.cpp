#include "src/core/buffer_policy.hpp"

#include <algorithm>

#include "src/core/node.hpp"
#include "src/core/priority_cache.hpp"
#include "src/util/error.hpp"

namespace dtn {

double ScalarBufferPolicy::cached_priority(const Message& m,
                                           const PolicyContext& ctx) const {
  if (!ctx.cache_enabled || ctx.node == nullptr || !cache_safe()) {
    return priority(m, ctx);
  }
  PriorityCache& cache = ctx.node->priority_cache();
  double cached = 0.0;
  if (cache.lookup(m.id, ctx.now, ctx.priority_refresh_s, &cached)) {
    return cached;
  }
  const double p = priority(m, ctx);
  cache.store(m.id, ctx.now, p);
  return p;
}

void ScalarBufferPolicy::order_for_sending(std::vector<const Message*>& msgs,
                                           const PolicyContext& ctx) const {
  std::vector<std::pair<double, const Message*>> keyed;
  keyed.reserve(msgs.size());
  for (const Message* m : msgs) keyed.emplace_back(cached_priority(*m, ctx), m);
  std::sort(keyed.begin(), keyed.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second->id < b.second->id;
            });
  for (std::size_t i = 0; i < keyed.size(); ++i) msgs[i] = keyed[i].second;
}

const Message* ScalarBufferPolicy::choose_drop(
    const std::vector<const Message*>& droppable, const Message* newcomer,
    const PolicyContext& ctx) const {
  DTN_REQUIRE(!droppable.empty() || newcomer != nullptr,
              "choose_drop: no candidates");
  const Message* victim = nullptr;
  double victim_prio = 0.0;
  auto consider = [&](const Message* m) {
    const double p = cached_priority(*m, ctx);
    if (victim == nullptr || p < victim_prio ||
        (p == victim_prio && m->id > victim->id)) {
      victim = m;
      victim_prio = p;
    }
  };
  // Residents first; the newcomer becomes the victim only when its
  // priority is strictly lower than the lowest resident's (Algorithm 1's
  // "if Priority_m < Priority_l" test — ties drop the resident).
  // The newcomer is rated fresh: it is not resident in ctx.node's buffer,
  // so a memo entry under its id could describe a different copy.
  for (const Message* m : droppable) consider(m);
  if (newcomer != nullptr) {
    const double p = priority(*newcomer, ctx);
    if (victim == nullptr || p < victim_prio) victim = newcomer;
  }
  return victim;
}

}  // namespace dtn
