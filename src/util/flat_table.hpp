// FlatTable: a flat open-addressing hash map from 64-bit keys to small
// values, for per-step lookups that a node-based std::unordered_map would
// pay for with a pointer chase and, on insert, a heap allocation.
//
// The slots are one power-of-two array of {key, value}; a lookup is one
// splitmix64 hash and a short linear probe over adjacent slots. Erase
// leaves a tombstone, so a probe chain is never cut. The table allocates
// only when it grows (load factor, tombstones included, kept under 0.7);
// `clear` keeps the capacity. Iteration order is the slot order, which
// depends on the insertion history: callers that serialize sort first.
//
// The two largest key values mark empty and erased slots, so keys must
// not exceed kMaxKey (checked on insert).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/util/error.hpp"

namespace dtn {

template <typename Value>
class FlatTable {
 public:
  static constexpr std::uint64_t kMaxKey = ~std::uint64_t{0} - 2;

  std::size_t size() const { return live_; }

  /// Removes every entry; the slot array keeps its capacity.
  void clear() {
    for (Slot& s : slots_) s.key = kEmpty;
    live_ = 0;
    used_ = 0;
  }

  /// Pre-sizes for n entries without rehash churn on the way there.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 7 < n * 10) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
  }

  const Value* find(std::uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return &slots_[i].value;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }
  Value* find(std::uint64_t key) {
    return const_cast<Value*>(std::as_const(*this).find(key));
  }

  /// The value under `key`, value-initialized first if `key` is absent.
  Value& operator[](std::uint64_t key) {
    DTN_REQUIRE(key <= kMaxKey, "FlatTable: key collides with a slot marker");
    if ((used_ + 1) * 10 > slots_.size() * 7) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = SIZE_MAX;  // first tombstone on the probe path
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) return slots_[i].value;
      if (slots_[i].key == kTombstone) {
        if (slot == SIZE_MAX) slot = i;
        continue;
      }
      if (slots_[i].key == kEmpty) {
        if (slot == SIZE_MAX) {
          slot = i;
          ++used_;  // a tombstone reuse does not extend any probe chain
        }
        ++live_;
        slots_[slot] = Slot{key, Value{}};
        return slots_[slot].value;
      }
    }
  }

  void erase(std::uint64_t key) {
    if (slots_.empty()) return;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = mix(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].key == key) {
        slots_[i].key = kTombstone;
        --live_;
        return;
      }
      if (slots_[i].key == kEmpty) return;
    }
  }

  /// Visits every entry as fn(key, value), in slot order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key <= kMaxKey) fn(s.key, s.value);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  static constexpr std::uint64_t kTombstone = ~std::uint64_t{0} - 1;
  static constexpr std::size_t kMinCapacity = 16;

  struct Slot {
    std::uint64_t key = kEmpty;
    Value value{};
  };

  static std::uint64_t mix(std::uint64_t x) {  // splitmix64 finalizer
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  /// Makes room for one more slot: doubles when live entries fill half
  /// the array, otherwise rehashes in place to sweep out the tombstones.
  void grow() {
    const std::size_t cap = slots_.size();
    rehash(cap == 0 ? kMinCapacity : live_ * 2 >= cap ? cap * 2 : cap);
  }

  void rehash(std::size_t cap) {
    const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(cap));
    live_ = 0;
    used_ = 0;
    const std::size_t mask = cap - 1;
    for (const Slot& s : old) {
      if (s.key > kMaxKey) continue;
      std::size_t i = mix(s.key) & mask;
      while (slots_[i].key != kEmpty) i = (i + 1) & mask;
      slots_[i] = s;
      ++live_;
      ++used_;
    }
  }

  std::vector<Slot> slots_;
  std::size_t live_ = 0;
  std::size_t used_ = 0;  ///< occupied probe anchors (live + tombstones)
};

}  // namespace dtn
