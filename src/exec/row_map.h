#ifndef ONESQL_EXEC_ROW_MAP_H_
#define ONESQL_EXEC_ROW_MAP_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/row.h"

namespace onesql {
namespace exec {

/// An open-addressing hash map keyed by Row, built for the per-change hot
/// path:
///  - callers pass precomputed hashes (a key is hashed once per change, and
///    the same hash serves the lookup, the insert and the erase),
///  - entries live in a dense slot vector (no per-node allocation, cache
///    friendly iteration),
///  - deletion uses Knuth's algorithm R (backward shift), so probes never
///    cross tombstones.
///
/// Iteration order is insertion-order perturbed by swap-removal — callers
/// that need canonical order (checkpoints, snapshots) sort, exactly as they
/// already do for std::unordered_map.
template <typename V>
class FlatRowMap {
 public:
  struct Slot {
    size_t hash;
    Row key;
    V value;
  };

  size_t size() const { return slots_.size(); }
  bool empty() const { return slots_.empty(); }

  const std::vector<Slot>& slots() const { return slots_; }
  std::vector<Slot>& slots() { return slots_; }

  void clear() {
    slots_.clear();
    index_.clear();
    mask_ = 0;
  }

  V* Find(const Row& key, size_t hash) {
    if (slots_.empty()) return nullptr;
    size_t q = hash & mask_;
    while (index_[q] != 0) {
      Slot& s = slots_[index_[q] - 1];
      if (s.hash == hash && RowsEqual(s.key, key)) return &s.value;
      q = (q + 1) & mask_;
    }
    return nullptr;
  }

  const V* Find(const Row& key, size_t hash) const {
    return const_cast<FlatRowMap*>(this)->Find(key, hash);
  }

  /// Returns the value for `key`, inserting a default-constructed one (and
  /// copying the key) if absent. `inserted` (optional) reports which.
  V* FindOrInsert(const Row& key, size_t hash, bool* inserted = nullptr) {
    MaybeGrow();
    size_t q = hash & mask_;
    while (index_[q] != 0) {
      Slot& s = slots_[index_[q] - 1];
      if (s.hash == hash && RowsEqual(s.key, key)) {
        if (inserted != nullptr) *inserted = false;
        return &s.value;
      }
      q = (q + 1) & mask_;
    }
    slots_.push_back(Slot{hash, key, V{}});
    index_[q] = static_cast<uint32_t>(slots_.size());
    if (inserted != nullptr) *inserted = true;
    return &slots_.back().value;
  }

  /// Removes `key`; returns false when absent.
  bool Erase(const Row& key, size_t hash) {
    return EraseMatching(hash, [&key](const Slot& s) {
      return RowsEqual(s.key, key);
    });
  }

  /// Removes the entry with hash `hash` for which `match(slot)` holds, for
  /// callers that name an entry by something cheaper than its key row (a
  /// value field). Returns false when there is none.
  template <typename Match>
  bool EraseMatching(size_t hash, Match match) {
    if (slots_.empty()) return false;
    size_t q = hash & mask_;
    while (index_[q] != 0) {
      Slot& s = slots_[index_[q] - 1];
      if (s.hash == hash && match(s)) {
        EraseIndexAt(q);
        RemoveSlot(index_value_cache_);
        return true;
      }
      q = (q + 1) & mask_;
    }
    return false;
  }

 private:
  void MaybeGrow() {
    if (index_.empty()) {
      index_.assign(16, 0);
      mask_ = 15;
      return;
    }
    // Load factor 0.7 over the index array.
    if ((slots_.size() + 1) * 10 < index_.size() * 7) return;
    index_.assign(index_.size() * 2, 0);
    mask_ = index_.size() - 1;
    for (size_t i = 0; i < slots_.size(); ++i) {
      size_t q = slots_[i].hash & mask_;
      while (index_[q] != 0) q = (q + 1) & mask_;
      index_[q] = static_cast<uint32_t>(i + 1);
    }
  }

  /// Knuth algorithm R: deletes the index entry at `p`, backward-shifting
  /// subsequent cluster entries so linear probing stays tombstone-free.
  /// Stashes the deleted entry's slot position in index_value_cache_.
  void EraseIndexAt(size_t p) {
    index_value_cache_ = index_[p] - 1;
    size_t j = p;
    size_t k = p;
    while (true) {
      k = (k + 1) & mask_;
      if (index_[k] == 0) break;
      const size_t home = slots_[index_[k] - 1].hash & mask_;
      // Entry at k may fill the hole at j unless its home lies cyclically
      // inside (j, k].
      if (((k - home) & mask_) >= ((k - j) & mask_)) {
        index_[j] = index_[k];
        j = k;
      }
    }
    index_[j] = 0;
  }

  /// Swap-removes slot `s`, fixing the index entry of the moved slot.
  void RemoveSlot(size_t s) {
    const size_t last = slots_.size() - 1;
    if (s != last) {
      slots_[s] = std::move(slots_[last]);
      size_t q = slots_[s].hash & mask_;
      while (index_[q] != static_cast<uint32_t>(last + 1)) q = (q + 1) & mask_;
      index_[q] = static_cast<uint32_t>(s + 1);
    }
    slots_.pop_back();
  }

  std::vector<Slot> slots_;
  std::vector<uint32_t> index_;
  size_t mask_ = 0;
  size_t index_value_cache_ = 0;
};

}  // namespace exec
}  // namespace onesql

#endif  // ONESQL_EXEC_ROW_MAP_H_
