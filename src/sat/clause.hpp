#pragma once
// Clause storage: all clauses (problem and learnt) live in one contiguous
// arena addressed by 32-bit references (CRef). This keeps the watch lists
// and reason array compact and makes relocation-based garbage collection of
// deleted learnt clauses possible.

#include <cassert>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "sat/types.hpp"

namespace optalloc::sat {

/// Reference to a clause in the arena (word offset).
using CRef = std::uint32_t;
inline constexpr CRef kUndefClause = 0xFFFFFFFFu;

/// A clause embedded in the arena. Layout (32-bit words):
///   [0] size<<3 | theory<<2 | learnt<<1 | reloced
///   [1] activity (float, learnt only; 0 for problem clauses)
///   [2] LBD (learnt only)
///   [3..3+size) literals; word [3] doubles as the relocation target when
///   the `reloced` bit is set.
/// The `theory` bit marks reason/conflict clauses materialized on the fly
/// by theory propagators; the solver frees them eagerly when the implied
/// literal is unassigned.
class Clause {
 public:
  std::uint32_t size() const { return header_ >> 3; }
  bool theory() const { return header_ & 4u; }
  bool learnt() const { return header_ & 2u; }
  bool reloced() const { return header_ & 1u; }

  Lit& operator[](std::uint32_t i) { return lits_[i]; }
  Lit operator[](std::uint32_t i) const { return lits_[i]; }

  std::span<const Lit> lits() const { return {lits_, size()}; }

  float activity() const {
    float a;
    std::memcpy(&a, &act_, sizeof a);
    return a;
  }
  void set_activity(float a) { std::memcpy(&act_, &a, sizeof a); }

  std::uint32_t lbd() const { return lbd_; }
  void set_lbd(std::uint32_t lbd) { lbd_ = lbd; }

  /// Shrink the clause in place. Note: this only rewrites the header — it
  /// does not credit the dropped literal words to the arena's wasted
  /// count. In-arena callers must go through ClauseArena::shrink_clause,
  /// or the GC trigger undercounts garbage.
  void shrink(std::uint32_t new_size) {
    assert(new_size <= size());
    header_ = (new_size << 3) | (header_ & 7u);
  }

  void set_reloced(CRef target) {
    header_ |= 1u;
    lits_[0] = Lit::from_index(static_cast<std::int32_t>(target));
  }
  CRef relocation() const {
    return static_cast<CRef>(lits_[0].index());
  }

 private:
  friend class ClauseArena;
  std::uint32_t header_;
  std::uint32_t act_;
  std::uint32_t lbd_;
  Lit lits_[1];  // flexible array; actual length == size()
};

static_assert(sizeof(Lit) == sizeof(std::uint32_t));

/// Bump-allocating arena with explicit relocation GC.
class ClauseArena {
 public:
  /// Allocate a clause with the given literals.
  CRef alloc(std::span<const Lit> lits, bool learnt, bool theory = false) {
    assert(!lits.empty());
    const std::uint32_t need = 3 + static_cast<std::uint32_t>(lits.size());
    const CRef ref = static_cast<CRef>(mem_.size());
    mem_.resize(mem_.size() + need);
    Clause& c = deref(ref);
    c.header_ = (static_cast<std::uint32_t>(lits.size()) << 3) |
                (theory ? 4u : 0u) | (learnt ? 2u : 0u);
    c.set_activity(0.0f);
    c.lbd_ = 0;
    for (std::uint32_t i = 0; i < lits.size(); ++i) c.lits_[i] = lits[i];
    return ref;
  }

  Clause& deref(CRef r) {
    assert(r < mem_.size());
    return *reinterpret_cast<Clause*>(mem_.data() + r);
  }
  const Clause& deref(CRef r) const {
    assert(r < mem_.size());
    return *reinterpret_cast<const Clause*>(mem_.data() + r);
  }

  /// Mark a clause as freed; its words become wasted until the next GC.
  void free_clause(CRef r) { wasted_ += 3 + deref(r).size(); }

  /// Shrink a clause in place (strengthening), crediting the dropped
  /// literal words to `wasted_` so the GC trigger sees them. The caller
  /// must have moved the surviving literals to the front. Interacts
  /// consistently with free_clause/reloc, which both use the *current*
  /// size.
  void shrink_clause(CRef r, std::uint32_t new_size) {
    Clause& c = deref(r);
    assert(new_size >= 1 && new_size <= c.size());
    wasted_ += c.size() - new_size;
    c.shrink(new_size);
  }

  std::size_t size() const { return mem_.size(); }
  std::size_t wasted() const { return wasted_; }
  /// Make room for `words` words in total without reallocating.
  void reserve(std::size_t words) { mem_.reserve(words); }

  /// Move a live clause into `to`, leaving a forwarding pointer behind.
  /// Returns the new reference; idempotent for already-moved clauses.
  CRef reloc(CRef r, ClauseArena& to) {
    Clause& c = deref(r);
    if (c.reloced()) return c.relocation();
    const CRef nr = to.alloc(c.lits(), c.learnt(), c.theory());
    to.deref(nr).set_activity(c.activity());
    to.deref(nr).set_lbd(c.lbd());
    c.set_reloced(nr);
    return nr;
  }

  void swap(ClauseArena& other) {
    mem_.swap(other.mem_);
    std::swap(wasted_, other.wasted_);
  }

 private:
  std::vector<std::uint32_t> mem_;
  std::size_t wasted_ = 0;
};

}  // namespace optalloc::sat
