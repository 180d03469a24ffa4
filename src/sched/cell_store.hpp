// Per-subtask placement cells, the storage behind SlotSchedule and
// DvqSchedule.
//
// A store is shaped like its task system: every task keeps its full
// subtask count, and every accessor answers for every seq.  It holds
// cells only for the seqs it *stores*, though: task k stores seqs
// [0, gap_begin) ∪ [gap_end, end) as one contiguous run of cells, and a
// seq outside them reads as an all-zero cell, which both cell types
// define as "unplaced".  Every store has that one layout, one record
// per task: its first cell, its gap, its stored end and its full count
// (an empty gap is kept at the stored end, so an ungapped task is one
// run from seq 0).
// The public schedule constructors, the reference schedulers and
// materialize() store every seq (no gap, end = count).  A simulator
// grows its store ahead of the slots it simulates instead, and a warp
// leaves the skipped seqs in the gap (StoreBudget, sched/positions.hpp),
// so a run holds cells for the seqs eligible before its limit, and a
// fast-forwarded one O(tasks + simulated placements) cells, whatever
// its horizon.
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

/// The cell block of one schedule (see the header note).
template <class Cell>
class CellStore {
 public:
  /// Shaped like `sys`, storing every seq (`all`) or none.  O(tasks),
  /// plus the zeroed block when `all`.
  CellStore(const TaskSystem& sys, bool all) {
    tasks_.reserve(static_cast<std::size_t>(sys.num_tasks()));
    for (std::int64_t k = 0; k < sys.num_tasks(); ++k) {
      const std::int64_t count = sys.task(k).num_subtasks();
      const StoredSeqs seqs = canonical({0, 0, all ? count : 0});
      tasks_.push_back(TaskCells{size_, seqs, count});
      size_ += seqs.cells();
      subtasks_ += count;
    }
    cells_ = block(size_);
    std::fill_n(cells_.get(), size_, Cell{});
  }

  CellStore(const CellStore& o)
      : tasks_(o.tasks_),
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
    return static_cast<std::int64_t>(tasks_.size());
  }
  [[nodiscard]] std::int64_t num_subtasks(std::int64_t task) const {
    return at(task).count;
  }
  /// Subtasks of the full shape.
  [[nodiscard]] std::int64_t subtasks() const { return subtasks_; }
  /// Cells held.
  [[nodiscard]] std::int64_t size() const { return size_; }
  /// True iff every seq is stored: the store holds the full shape.
  [[nodiscard]] bool all() const { return size_ == subtasks_; }
  [[nodiscard]] StoredSeqs seqs(std::int64_t task) const {
    const StoredSeqs& g = at(task).seqs;
    return g.gap_begin == g.gap_end ? StoredSeqs{0, 0, g.end} : g;
  }

  /// The cell of seq `seq` of `task`, or nullptr if it is not stored.
  /// Requires a valid task and seq.
  [[nodiscard]] const Cell* find(std::int64_t task, std::int64_t seq) const {
    const StoredSeqs& g = at(task).seqs;
    if (seq >= g.end || (seq >= g.gap_begin && seq < g.gap_end)) {
      return nullptr;
    }
    return cells_.get() + (base(task, seq) + seq);
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
    const TaskCells& t = at(task);
    const StoredSeqs& g = t.seqs;
    return t.first - (seq < g.gap_end ? 0 : g.gap_end - g.gap_begin);
  }

  /// Calls f(lo, hi, cells) for the runs of seqs [first, last) of
  /// `task` (at most four), in seq order: `cells` holds seq lo's cell
  /// onward, or is null for a run that is not stored.
  template <class F>
  void runs(std::int64_t task, std::int64_t first, std::int64_t last,
            F&& f) const {
    runs(at(task), cells_.get(), first, last, f);
  }

  /// Calls f(seq, cell.value()) for seqs [first, last) of `task` in seq
  /// order, an unstored seq with a zero cell.  The task's record is
  /// looked up once; f has one call site, stepping through contiguous cells
  /// (unstored seqs through a run of zero cells, kZeroRun at a time), so
  /// the hot walks of the analyses inline it once and run as over a
  /// plain array.
  template <class F>
  void walk(std::int64_t task, std::int64_t first, std::int64_t last,
            F&& f) const {
    const TaskCells& t = at(task);
    for (std::int64_t s = first; s < last;) {
      const Run r = run(t, s, last);
      const Cell* c = kUnstored;
      std::int64_t stop = r.end;
      if (r.stored) {
        c = cells_.get() + (r.base + s);
      } else {
        stop = std::min(stop, s + kZeroRun);
      }
      for (; s < stop; ++s, ++c) {
        f(static_cast<std::int32_t>(s), c->value());
      }
    }
  }

  /// Zeroes every stored cell.
  void clear() { std::fill_n(cells_.get(), size_, Cell{}); }

  /// Stores every seq, keeping the stored cells (moved() as for
  /// relayout).  O(1), returning false, when the store holds every seq
  /// already.
  template <class Moved>
  bool store_all(Moved&& moved) {
    if (all()) return false;
    return relayout(
        [this](std::size_t k, const StoredSeqs&) {
          return StoredSeqs{0, 0, num_subtasks(static_cast<std::int64_t>(k))};
        },
        moved);
  }

  /// Relays the store so task k stores `layout(k, seqs(k))` (called once
  /// per task): a cell whose seq stays stored is copied (moved(from, to,
  /// n) reports each run of n cells from index `from` to index `to`), a
  /// newly stored one is zero, and a cell whose seq leaves the store is
  /// dropped.  Returns false, touching nothing, when no task's layout
  /// changes.  O(tasks + the new block).  A layout out of its task's
  /// bounds is a ContractViolation that leaves the store unusable.
  template <class Layout, class Moved>
  bool relayout(Layout&& layout, Moved&& moved) {
    // The layout is rewritten in place; the old one is kept in old_ while
    // there are cells to copy out of the old block.
    old_.clear();
    if (size_ > 0) old_.reserve(tasks_.size());
    std::int64_t size = 0;
    bool changed = false;
    for (std::size_t k = 0; k < tasks_.size(); ++k) {
      TaskCells& t = tasks_[k];
      const StoredSeqs g = layout(k, seqs(static_cast<std::int64_t>(k)));
      PFAIR_REQUIRE(0 <= g.gap_begin && g.gap_begin <= g.gap_end &&
                        g.gap_end <= g.end && g.end <= t.count,
                    "bad stored seqs of task " << k);
      if (size_ > 0) old_.push_back(t.seqs);
      changed |= canonical(g) != t.seqs;
      t = TaskCells{size, canonical(g), t.count};
      size += t.seqs.cells();
    }
    if (!changed) return false;
    // Zero the new block in one pass, then copy each stored cell whose
    // seq stays stored; task k's old cells start at `from`.
    auto cells = block(size);
    std::fill_n(cells.get(), size, Cell{});
    std::int64_t from = 0;
    for (std::size_t k = 0; k < old_.size(); ++k) {
      const TaskCells& t = tasks_[k];
      const TaskCells was{from, old_[k], t.count};
      from += old_[k].cells();
      Cell* dst = cells.get() + t.first;
      const auto copy = [&](std::int64_t lo, std::int64_t hi, const Cell* c) {
        if (c != nullptr) {
          std::copy_n(c, hi - lo, dst);
          moved(c - cells_.get(), dst - cells.get(), hi - lo);
        }
        dst += hi - lo;
      };
      runs(was, cells_.get(), 0, t.seqs.gap_begin, copy);
      runs(was, cells_.get(), t.seqs.gap_end, t.seqs.end, copy);
    }
    cells_ = std::move(cells);
    size_ = size;
    return true;
  }

 private:
  // What unstored seqs read as, kZeroRun at a time.
  static constexpr std::int64_t kZeroRun = 64;
  static constexpr Cell kUnstored[kZeroRun]{};

  /// One task's layout.
  struct TaskCells {
    std::int64_t first;  // index of seq 0's cell, the gap aside
    StoredSeqs seqs;
    std::int64_t count;  // subtasks of the full shape
  };

  /// Seqs [s, end) of a task: stored, seq's cell at index base + seq,
  /// or not.
  struct Run {
    std::int64_t end;
    std::int64_t base;
    bool stored;
  };
  /// The run of task layout `t` from seq s on, cut at `last`.
  static Run run(const TaskCells& t, std::int64_t s, std::int64_t last) {
    const StoredSeqs& g = t.seqs;
    if (s < g.gap_begin) return {std::min(last, g.gap_begin), t.first, true};
    if (s < g.gap_end) return {std::min(last, g.gap_end), 0, false};
    if (s < g.end) {
      return {std::min(last, g.end), t.first - (g.gap_end - g.gap_begin),
              true};
    }
    return {last, 0, false};
  }
  /// runs() over layout `t` of the block `cells`.
  template <class F>
  static void runs(const TaskCells& t, const Cell* cells, std::int64_t first,
                   std::int64_t last, F&& f) {
    for (std::int64_t s = first; s < last;) {
      const Run r = run(t, s, last);
      f(s, r.end, r.stored ? cells + (r.base + s) : nullptr);
      s = r.end;
    }
  }
  /// `g` with an empty gap moved to its end, so that the run before the
  /// gap is the whole of an ungapped task: one test in run().
  static StoredSeqs canonical(const StoredSeqs& g) {
    return g.gap_begin == g.gap_end ? StoredSeqs{g.end, g.end, g.end} : g;
  }

  [[nodiscard]] const TaskCells& at(std::int64_t task) const {
    return tasks_[static_cast<std::size_t>(task)];
  }
  /// An uninitialized block of `size` cells; none for an empty store.
  static std::unique_ptr<Cell[]> block(std::int64_t size) {
    if (size == 0) return nullptr;
    return std::make_unique_for_overwrite<Cell[]>(
        static_cast<std::size_t>(size));
  }

  std::vector<TaskCells> tasks_;
  // relayout()'s copy of the old layout, kept so that a store relaid
  // many times (a growing simulator's) allocates it once.  Not copied.
  std::vector<StoredSeqs> old_;
  std::unique_ptr<Cell[]> cells_;
  std::int64_t size_ = 0;
  std::int64_t subtasks_ = 0;
};

}  // namespace pfair
