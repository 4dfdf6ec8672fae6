// Property-based tests: structural invariants that must hold for ANY
// seed, policy, and router — checked over randomized small worlds at
// multiple points in simulated time.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>

#include "src/config/scenario.hpp"
#include "src/core/node.hpp"
#include "src/mobility/stationary.hpp"
#include "src/pipeline/compile.hpp"
#include "src/pipeline/parser.hpp"
#include "src/routing/spray_and_wait.hpp"
#include "src/util/rng.hpp"

namespace dtn {
namespace {

using PropertyParams = std::tuple<std::uint64_t /*seed*/,
                                  const char* /*policy*/,
                                  const char* /*router*/>;

class WorldInvariants : public ::testing::TestWithParam<PropertyParams> {
 protected:
  Scenario scenario() const {
    const auto [seed, policy, router] = GetParam();
    Scenario sc = Scenario::random_waypoint_paper();
    sc.n_nodes = 25;
    sc.world.duration = 4000.0;
    sc.rwp.area = Rect::sized(1200.0, 900.0);
    sc.traffic.interval_min = 20.0;
    sc.traffic.interval_max = 30.0;
    sc.traffic.ttl = 2500.0;
    sc.traffic.initial_copies = 8;
    sc.buffer_capacity = 1'500'000;  // three slots: drops guaranteed
    sc.seed = seed;
    sc.policy = policy;
    sc.router = router;
    return sc;
  }

  // Checks every invariant on the current world state.
  static void check_invariants(const World& world) {
    std::unordered_map<MessageId, std::size_t> holders;
    std::unordered_map<MessageId, int> tokens;
    std::unordered_map<MessageId, int> budget;

    for (NodeId id = 0; id < world.node_count(); ++id) {
      const Node& node = world.node(id);
      // Buffer byte accounting is exact.
      std::int64_t used = 0;
      for (const auto& m : node.buffer().messages()) {
        used += m.size;
        ++holders[m.id];
        tokens[m.id] += m.copies;
        budget[m.id] = m.initial_copies;
        // Per-copy sanity.
        EXPECT_GE(m.copies, 1) << "node " << id << " msg " << m.id;
        EXPECT_LE(m.copies, m.initial_copies);
        EXPECT_GE(m.hops, 0);
        EXPECT_GE(m.received, m.created);
        // Spray lineage is time-ordered.
        for (std::size_t k = 1; k < m.spray_times.size(); ++k) {
          EXPECT_LE(m.spray_times[k - 1], m.spray_times[k] + 1e-9);
        }
      }
      EXPECT_EQ(used, node.buffer().used()) << "node " << id;
      EXPECT_LE(used, node.buffer().capacity()) << "node " << id;
    }

    // Registry ground truth matches buffers.
    for (const auto& [msg, count] : holders) {
      EXPECT_DOUBLE_EQ(world.registry().n_holding(msg),
                       static_cast<double>(count))
          << "msg " << msg;
    }
    // Copy-token conservation: spray-family routers never exceed the
    // budget (flooding routers do not track tokens).
    const std::string router_name = world.router().name();
    if (router_name.find("spray") != std::string::npos) {
      for (const auto& [msg, total] : tokens) {
        EXPECT_LE(total, budget[msg]) << "msg " << msg;
      }
    }
    // Binary-spray lineage consistency: with a power-of-two budget, a
    // copy that went through k binary splits holds C/2^k tokens and
    // carries exactly k spray timestamps (the Eq. 15 input).
    if (router_name == std::string("spray-and-wait-binary")) {
      for (NodeId id = 0; id < world.node_count(); ++id) {
        for (const auto& m : world.node(id).buffer().messages()) {
          if ((m.initial_copies & (m.initial_copies - 1)) != 0) continue;
          const double k = std::log2(static_cast<double>(m.initial_copies) /
                                     static_cast<double>(m.copies));
          EXPECT_DOUBLE_EQ(static_cast<double>(m.spray_times.size()), k)
              << "msg " << m.id << " at node " << id;
        }
      }
    }

    // Stats consistency.
    const SimStats& s = world.stats();
    EXPECT_LE(s.delivered, s.created);
    EXPECT_LE(s.transfers_completed + s.transfers_aborted +
                  s.admission_rejected + s.duplicates,
              s.transfers_started + s.transfers_aborted);
    EXPECT_GE(s.transfers_started,
              s.transfers_completed + s.admission_rejected + s.duplicates);
    EXPECT_EQ(s.hopcounts.count(), s.delivered);
    EXPECT_EQ(s.latency.count(), s.delivered);
    if (s.delivered > 0) {
      EXPECT_GE(s.hopcounts.min(), 1.0);
      EXPECT_GE(s.latency.min(), 0.0);
    }
  }
};

TEST_P(WorldInvariants, HoldAtEveryCheckpoint) {
  auto world = build_world(scenario());
  for (double t = 1000.0; t <= 4000.0; t += 1000.0) {
    world->run_until(t);
    check_invariants(*world);
  }
}

std::string sanitize(std::string name) {
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      out.push_back(c);
    } else if (c == '-' || c == '_') {
      out.push_back('_');
    }  // anything else (pipeline spec punctuation) is dropped
  }
  return out;
}

std::string policy_seed_name(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  return sanitize(std::string(std::get<1>(info.param)) + "_seed" +
                  std::to_string(std::get<0>(info.param)));
}

std::string router_policy_name(
    const ::testing::TestParamInfo<PropertyParams>& info) {
  return sanitize(std::string(std::get<2>(info.param)) + "_" +
                  std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndPolicies, WorldInvariants,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values("fifo", "ttl-ratio", "copies-ratio",
                                         "sdsrp", "sdsrp-oracle", "random"),
                       ::testing::Values("spray-and-wait")),
    policy_seed_name);

INSTANTIATE_TEST_SUITE_P(
    Routers, WorldInvariants,
    ::testing::Combine(::testing::Values(7u),
                       ::testing::Values("fifo", "sdsrp"),
                       ::testing::Values("epidemic", "direct-delivery",
                                         "first-contact", "spray-and-focus",
                                         "spray-and-wait-source")),
    router_policy_name);

// Determinism as a property: identical seeds give identical outcomes for
// every policy (including RandomPolicy, whose stream is seeded).
class DeterminismProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismProperty, IdenticalSeedsIdenticalRuns) {
  Scenario sc = Scenario::random_waypoint_paper();
  sc.n_nodes = 20;
  sc.world.duration = 2500.0;
  sc.rwp.area = Rect::sized(1000.0, 800.0);
  sc.traffic.ttl = 2000.0;
  sc.policy = GetParam();
  auto w1 = build_world(sc);
  auto w2 = build_world(sc);
  w1->run();
  w2->run();
  EXPECT_EQ(w1->stats().delivered, w2->stats().delivered);
  EXPECT_EQ(w1->stats().transfers_started, w2->stats().transfers_started);
  EXPECT_EQ(w1->stats().drops, w2->stats().drops);
  EXPECT_EQ(w1->stats().ttl_expired, w2->stats().ttl_expired);
  // Final buffer states match message-for-message.
  for (NodeId id = 0; id < w1->node_count(); ++id) {
    const auto& m1 = w1->node(id).buffer().messages();
    const auto& m2 = w2->node(id).buffer().messages();
    ASSERT_EQ(m1.size(), m2.size()) << "node " << id;
    for (std::size_t i = 0; i < m1.size(); ++i) {
      EXPECT_EQ(m1[i].id, m2[i].id);
      EXPECT_EQ(m1[i].copies, m2[i].copies);
      EXPECT_EQ(m1[i].hops, m2[i].hops);
    }
  }
}

std::string bare_policy_name(
    const ::testing::TestParamInfo<const char*>& info) {
  return sanitize(info.param);
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismProperty,
                         ::testing::Values("fifo", "random", "sdsrp",
                                           "copies-ratio"),
                         bare_policy_name);

// Model-based fuzz of Buffer + Node::admit against a naive reference
// model. The model is a plain map id -> size plus a pinned set; it does
// not predict *which* victim a policy evicts (that is the policy's
// business) but it pins down everything structural:
//   * byte accounting is exact after every operation;
//   * `Buffer::revision()` is monotonic and bumps exactly once per
//     membership change (inserts, takes, evictions);
//   * pinned messages are never evicted by admission;
//   * `would_admit` is a faithful dry run of `admit` (deterministic
//     policies only — RandomPolicy draws from its stream per decision);
//   * a rejected admission leaves the buffer untouched.
// TTL expiry is the World's job; the step oracle checks it there
// (tests/support/step_oracle.hpp).
class BufferModelFuzz : public ::testing::TestWithParam<const char*> {};

TEST_P(BufferModelFuzz, AdmissionAgreesWithNaiveModel) {
  const std::string policy_name = GetParam();
  // "pipeline:" params build the policy through the element-graph
  // compiler instead of Policy.name — the composite's element-initiated
  // drops must satisfy the same bump-exactness assertions (one
  // Buffer::revision bump per membership change) as the closed classes.
  const bool is_pipeline = policy_name.rfind("pipeline:", 0) == 0;
  const bool deterministic = policy_name.find("random") == std::string::npos &&
                             policy_name.find("Random") == std::string::npos;
  Scenario sc = Scenario::random_waypoint_paper();
  if (!is_pipeline) sc.policy = policy_name;

  for (const std::uint64_t seed : {11ull, 29ull, 83ull}) {
    std::unique_ptr<BufferPolicy> policy;
    if (is_pipeline) {
      pipeline::CompileOptions opts;
      opts.policy_seed = seed;
      policy = pipeline::compile(
                   pipeline::parse(policy_name.substr(sizeof("pipeline:") - 1)),
                   opts)
                   .policy;
    } else {
      policy = make_policy(sc, seed);
    }
    SprayAndWaitRouter router;
    constexpr std::int64_t kCapacity = 3'000'000;
    Node node(0, std::make_unique<StationaryModel>(Vec2{0.0, 0.0}), kCapacity,
              &router, policy.get());

    std::map<MessageId, std::int64_t> model;  // id -> size
    std::set<MessageId> pinned;

    Rng rng(seed * 7919 + 1);
    SimTime now = 0.0;
    MessageId next_id = 1;
    std::uint64_t last_rev = node.buffer().revision();

    // Uniform pick from an ordered set/map (deterministic under the seed).
    const auto pick = [&rng](const auto& container) {
      auto it = container.begin();
      std::advance(it, rng.uniform_int(
                           0, static_cast<std::int64_t>(container.size()) - 1));
      return *it;
    };

    for (int op = 0; op < 400; ++op) {
      now += rng.uniform(1.0, 40.0);
      PolicyContext ctx;
      ctx.now = now;
      ctx.n_nodes = 16;
      ctx.node = &node;
      const double roll = rng.uniform01();

      if (roll < 0.55) {  // admit a fresh message
        Message m;
        m.id = next_id++;
        m.source = 1;
        m.destination = 2;
        m.size = rng.uniform_int(200'000, 900'000);
        m.created = now;
        m.ttl = rng.uniform(50.0, 2000.0);
        m.initial_copies = 8;
        m.copies = static_cast<int>(rng.uniform_int(1, 8));
        m.received = now;
        const Message probe = m;
        const bool predicted = deterministic && node.would_admit(probe, ctx);
        const auto res = node.admit(std::move(m), ctx);
        if (deterministic) {
          EXPECT_EQ(res.admitted, predicted) << "dry run disagreed with admit";
        }
        for (const Message& e : res.evicted) {
          EXPECT_EQ(pinned.count(e.id), 0u) << "evicted pinned msg " << e.id;
          ASSERT_EQ(model.count(e.id), 1u) << "evicted non-resident " << e.id;
          model.erase(e.id);
        }
        std::size_t bumps = res.evicted.size();
        if (res.admitted) {
          model[probe.id] = probe.size;
          ++bumps;
        } else {
          EXPECT_TRUE(res.evicted.empty())
              << "rejected admission must not evict";
        }
        EXPECT_EQ(node.buffer().revision(), last_rev + bumps);
      } else if (roll < 0.75 && !model.empty()) {  // take (transfer/drop)
        const MessageId id = pick(model).first;
        if (pinned.count(id) > 0) {
          node.unpin(id);
          pinned.erase(id);
        }
        const Message gone = node.buffer().take(id);
        EXPECT_EQ(gone.size, model[id]);
        model.erase(id);
        EXPECT_EQ(node.buffer().revision(), last_rev + 1);
      } else if (roll < 0.875 && !model.empty()) {  // pin (transfer start)
        const MessageId id = pick(model).first;
        if (pinned.count(id) == 0) {
          node.pin(id);
          pinned.insert(id);
        }
        EXPECT_TRUE(node.is_pinned(id));
      } else if (!pinned.empty()) {  // unpin (transfer end)
        const MessageId id = pick(pinned);
        node.unpin(id);
        pinned.erase(id);
        EXPECT_FALSE(node.is_pinned(id));
      }

      // Structural invariants after every operation.
      std::int64_t used = 0;
      for (const auto& [id, size] : model) used += size;
      EXPECT_EQ(node.buffer().used(), used);
      EXPECT_EQ(node.buffer().count(), model.size());
      EXPECT_LE(node.buffer().used(), node.buffer().capacity());
      EXPECT_GE(node.buffer().revision(), last_rev) << "revision went back";
      for (MessageId id : pinned) {
        EXPECT_TRUE(node.buffer().has(id)) << "pinned msg " << id << " lost";
      }
      for (const auto& [id, size] : model) {
        const Message* m = node.buffer().find(id);
        ASSERT_NE(m, nullptr) << "model msg " << id << " missing";
        EXPECT_EQ(m->size, size);
      }
      last_rev = node.buffer().revision();
    }
    EXPECT_GT(last_rev, 0u) << "fuzz never churned the buffer";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, BufferModelFuzz,
    ::testing::Values(
        "fifo", "ttl-ratio", "copies-ratio", "sdsrp", "random",
        // Element-graph composites: a deterministic one (reject-newcomer
        // drop under a ttl ordering) and a stochastic one (random victim
        // under an sdsrp ordering).
        "pipeline:SprayAndWait -> PriorityQueue(ttl-ratio) -> DropTail(reject)",
        "pipeline:SprayAndWait -> PriorityQueue(sdsrp) -> DropRandom"),
    bare_policy_name);

}  // namespace
}  // namespace dtn
