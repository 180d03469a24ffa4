// Per-subtask placement cells, the storage behind SlotSchedule and
// DvqSchedule.
//
// A store is shaped like its task system: every task keeps its full
// subtask count, and every accessor answers for every seq.  It holds
// cells only for the seqs it *stores*, though: task k stores seqs
// [0, gap_begin) ∪ [gap_end, end) as one contiguous run of cells, and a
// seq outside them reads as an all-zero cell, which both cell types
// define as "unplaced".  A full-shape store holds every seq — what the
// public schedule constructors, the reference schedulers and
// materialize() build, and what a simulator stores from its first step.
// A simulator the fast-forward driver has store ahead grows its store
// ahead of the slots it simulates instead, and its warp leaves the
// skipped seqs in the gap (sched/simulator.hpp, dvq/dvq_simulator.hpp),
// so a fast-forwarded run holds O(tasks + simulated placements) cells,
// whatever its horizon.
//
// Cells are allocated through operator new and zeroed (or copied) in
// full, so a store's memory is what it holds: no lazily mapped pages,
// and an allocation counter sees every block.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/assert.hpp"
#include "tasks/task_system.hpp"

namespace pfair {

template <class Stored>
class SplicedSchedule;

namespace detail {
/// The fast-forward driver (sched/fast_forward.hpp), declared here for
/// the types that befriend it: SplicedSchedule and the simulators, which
/// store ahead for it.
template <class Model, class Opts, class... SimArgs>
SplicedSchedule<typename Model::Stored> fast_forward(
    const TaskSystem& sys, const Opts& opts, bool probe,
    const SimArgs&... sim_args);
}  // namespace detail

/// The seqs one task stores: [0, gap_begin) ∪ [gap_end, end), with
/// 0 <= gap_begin <= gap_end <= end <= its subtask count.
struct StoredSeqs {
  std::int64_t gap_begin = 0;
  std::int64_t gap_end = 0;
  std::int64_t end = 0;

  [[nodiscard]] std::int64_t cells() const {
    return end - (gap_end - gap_begin);
  }
  friend bool operator==(const StoredSeqs&, const StoredSeqs&) = default;
};

/// The gapped cell block of one schedule (see the header note).  A
/// store that holds every seq, or none, keeps one offset per task, as a
/// dense block would; only a gapped store keeps per-task seq ranges.
template <class Cell>
class CellStore {
 public:
  /// Shaped like `sys`, storing every seq (`all`) or none.  O(tasks),
  /// plus the zeroed block when `all`.
  CellStore(const TaskSystem& sys, bool all) {
    first_.reserve(static_cast<std::size_t>(sys.num_tasks()) + 1);
    first_.push_back(0);
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      first_.push_back(first_.back() + sys.task(k).num_subtasks());
    }
    subtasks_ = first_.back();
    size_ = all ? subtasks_ : 0;
    cells_ = block(size_);
    std::fill_n(cells_.get(), size_, Cell{});
  }

  CellStore(const CellStore& o)
      : first_(o.first_),
        gapped_(o.gapped_),
        cells_(block(o.size_)),
        size_(o.size_),
        subtasks_(o.subtasks_) {
    std::copy_n(o.cells_.get(), size_, cells_.get());
  }
  CellStore& operator=(const CellStore& o) {
    if (this != &o) *this = CellStore(o);
    return *this;
  }
  CellStore(CellStore&&) noexcept = default;
  CellStore& operator=(CellStore&&) noexcept = default;

  [[nodiscard]] std::int64_t num_tasks() const {
    return static_cast<std::int64_t>(first_.size()) - 1;
  }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return gapped_.empty() ? at(first_, task + 1) - at(first_, task)
                           : at(gapped_, task).count;
  }
  /// Subtasks of the full shape.
  [[nodiscard]] std::int64_t subtasks() const { return subtasks_; }
  /// Cells held.
  [[nodiscard]] std::int64_t size() const { return size_; }
  [[nodiscard]] StoredSeqs seqs(std::int64_t task) const {
    if (!gapped_.empty()) return at(gapped_, task).seqs;
    return StoredSeqs{0, 0, all() ? num_subtasks(task) : 0};
  }

  /// The cell of seq `seq` of `task`, or nullptr if it is not stored.
  /// Requires a valid task and seq.
  [[nodiscard]] const Cell* find(std::int64_t task, std::int64_t seq) const {
    return segment(task, seq, seq + 1).cells;
  }
  [[nodiscard]] Cell* find(std::int64_t task, std::int64_t seq) {
    return const_cast<Cell*>(std::as_const(*this).find(task, seq));
  }
  /// The whole block: cell index i is data()[i], i in [0, size()).
  [[nodiscard]] const Cell* data() const { return cells_.get(); }
  [[nodiscard]] Cell* data() { return cells_.get(); }
  /// The index base of `task`'s stored run holding seq `seq`: seq's cell
  /// is base(task, seq) + seq while seq and its successors stay on
  /// the same side of the gap.
  [[nodiscard]] std::int64_t base(std::int64_t task, std::int64_t seq) const {
    const StoredSeqs g = seqs(task);
    return at(first_, task) - (seq < g.gap_end ? 0 : g.gap_end - g.gap_begin);
  }

  /// Calls f(lo, hi, cells) for the maximal runs of seqs [first, last)
  /// of `task`, in seq order: `cells` holds seq lo's cell onward, or is
  /// null for a run that is not stored.
  template <class F>
  void runs(std::int64_t task, std::int64_t first, std::int64_t last,
            F&& f) const {
    for (std::int64_t s = first; s < last;) {
      const Segment seg = segment(task, s, last);
      f(s, seg.end, seg.cells);
      s = seg.end;
    }
  }

  /// Calls f(seq, cell.value()) for seqs [first, last) of `task` in seq
  /// order, an unstored seq with a zero cell.  One call site for f,
  /// stepping through contiguous cells (unstored seqs through a run of
  /// zero cells, kZeroRun at a time), so the hot walks of the analyses
  /// inline it once and run as over a plain array.
  template <class F>
  void walk(std::int64_t task, std::int64_t first, std::int64_t last,
            F&& f) const {
    for (std::int64_t s = first; s < last;) {
      Segment seg = segment(task, s, last);
      if (seg.cells == nullptr) {
        seg = {std::min<std::int64_t>(seg.end, s + kZeroRun), kUnstored};
      }
      for (const Cell* c = seg.cells; s < seg.end; ++s, ++c) {
        f(static_cast<std::int32_t>(s), c->value());
      }
    }
  }

  /// Zeroes every stored cell.
  void clear() { std::fill_n(cells_.get(), size_, Cell{}); }

  /// Stores every seq, keeping the stored cells (moved() as for
  /// relayout).  O(1) when the store holds every seq already; a store
  /// holding none and no gap keeps the full shape's offsets, so it only
  /// needs the zeroed block.  Returns false when nothing changed.
  template <class Moved>
  bool store_all(Moved&& moved) {
    if (all()) return false;
    if (gapped_.empty()) {
      cells_ = block(subtasks_);
      std::fill_n(cells_.get(), subtasks_, Cell{});
      size_ = subtasks_;
      return true;
    }
    return relayout(
        [this](std::size_t k, const StoredSeqs&) {
          return StoredSeqs{0, 0, num_subtasks(static_cast<std::int64_t>(k))};
        },
        moved);
  }

  /// Relays the store so task k stores `layout(k, seqs(k))`: a cell whose
  /// seq stays stored is copied (moved(from, to, n) reports each run of n
  /// cells from index `from` to index `to`), a newly stored one is zero,
  /// and a cell whose seq leaves the store is dropped.  Returns false,
  /// touching nothing, when no task's layout changes.  O(tasks + the new
  /// block).
  template <class Layout, class Moved>
  bool relayout(Layout&& layout, Moved&& moved) {
    const auto n = static_cast<std::size_t>(num_tasks());
    std::int64_t size = 0;
    bool changed = false, full = true;
    for (std::size_t k = 0; k < n; ++k) {
      const auto task = static_cast<std::int64_t>(k);
      const StoredSeqs o = seqs(task);
      const StoredSeqs g = layout(k, o);
      PFAIR_REQUIRE(0 <= g.gap_begin && g.gap_begin <= g.gap_end &&
                        g.gap_end <= g.end && g.end <= num_subtasks(task),
                    "bad stored seqs of task " << k);
      changed |= g != o;
      full &= g.cells() == num_subtasks(task);
      size += g.cells();
    }
    if (!changed) return false;
    // Each task is copied out of the old block before its offset moves;
    // later tasks still read the old offsets.
    std::vector<Gapped> next(full ? 0 : n);
    auto cells = block(size);
    Cell* dst = cells.get();
    for (std::size_t k = 0; k < n; ++k) {
      const auto task = static_cast<std::int64_t>(k);
      const StoredSeqs g = layout(k, seqs(task));
      const auto fill = [&](std::int64_t lo, std::int64_t hi, const Cell* c) {
        if (c == nullptr) {
          std::fill_n(dst, hi - lo, Cell{});
        } else {
          std::copy_n(c, hi - lo, dst);
          moved(c - cells_.get(), dst - cells.get(), hi - lo);
        }
        dst += hi - lo;
      };
      const std::int64_t first = dst - cells.get();
      if (!full) next[k] = Gapped{g, num_subtasks(task)};
      runs(task, 0, g.gap_begin, fill);
      runs(task, g.gap_end, g.end, fill);
      first_[k] = first;
    }
    first_.back() = size;
    gapped_ = std::move(next);
    cells_ = std::move(cells);
    size_ = size;
    return true;
  }

 private:
  // What unstored seqs read as, kZeroRun at a time.
  static constexpr std::int64_t kZeroRun = 64;
  static constexpr Cell kUnstored[kZeroRun]{};

  struct Gapped {
    StoredSeqs seqs;
    std::int64_t count;  // subtasks of the full shape
  };

  /// Seqs [s, end) of a task, all stored from `cells` on, or none
  /// (null); end <= last.
  struct Segment {
    std::int64_t end;
    const Cell* cells;
  };
  [[nodiscard]] Segment segment(std::int64_t task, std::int64_t s,
                                std::int64_t last) const {
    const std::int64_t first = at(first_, task);
    if (gapped_.empty()) {
      return {last, all() ? cells_.get() + (first + s) : nullptr};
    }
    const StoredSeqs& g = at(gapped_, task).seqs;
    if (s < g.gap_begin) {
      return {std::min(last, g.gap_begin), cells_.get() + (first + s)};
    }
    if (s < g.gap_end) return {std::min(last, g.gap_end), nullptr};
    if (s < g.end) {
      return {std::min(last, g.end),
              cells_.get() + (first + s - (g.gap_end - g.gap_begin))};
    }
    return {last, nullptr};
  }

  template <class V>
  static const typename V::value_type& at(const V& v, std::int64_t i) {
    return v[static_cast<std::size_t>(i)];
  }
  /// An uninitialized block of `size` cells; none for an empty store.
  static std::unique_ptr<Cell[]> block(std::int64_t size) {
    if (size == 0) return nullptr;
    return std::make_unique_for_overwrite<Cell[]>(
        static_cast<std::size_t>(size));
  }
  /// Every seq stored.  A gapped store lacks some, so it holds fewer
  /// cells than the full shape.
  [[nodiscard]] bool all() const { return size_ == subtasks_; }

  // Ungapped: [task] -> index of seq 0's cell = flat offset; sentinel
  // subtasks().  Gapped: [task] -> index of seq 0's cell (gap aside);
  // sentinel size().
  std::vector<std::int64_t> first_;
  std::vector<Gapped> gapped_;  // empty unless gapped
  std::unique_ptr<Cell[]> cells_;
  std::int64_t size_ = 0;
  std::int64_t subtasks_ = 0;
};

}  // namespace pfair
