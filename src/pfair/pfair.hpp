// Umbrella header for the pfair library.
//
// A C++20 laboratory for Pfair scheduling on multiprocessors, built around
// Devi & Anderson, "Desynchronized Pfair Scheduling on Multiprocessors"
// (IPPS 2005).  See README.md for a tour and DESIGN.md for the
// paper-to-code map.
#pragma once

#include "core/arena.hpp"        // IWYU pragma: export
#include "core/assert.hpp"       // IWYU pragma: export
#include "core/rational.hpp"     // IWYU pragma: export
#include "core/simd.hpp"         // IWYU pragma: export
#include "core/rng.hpp"          // IWYU pragma: export
#include "core/stats.hpp"        // IWYU pragma: export
#include "core/thread_pool.hpp"  // IWYU pragma: export
#include "core/time.hpp"         // IWYU pragma: export

#include "obs/metrics.hpp"  // IWYU pragma: export
#include "obs/probe.hpp"    // IWYU pragma: export
#include "obs/prof.hpp"     // IWYU pragma: export
#include "obs/quality.hpp"  // IWYU pragma: export
#include "obs/trace.hpp"    // IWYU pragma: export

#include "tasks/group_deadline.hpp"  // IWYU pragma: export
#include "tasks/subtask.hpp"         // IWYU pragma: export
#include "tasks/task.hpp"            // IWYU pragma: export
#include "tasks/window_table.hpp"    // IWYU pragma: export
#include "tasks/task_system.hpp"     // IWYU pragma: export
#include "tasks/weight.hpp"          // IWYU pragma: export
#include "tasks/windows.hpp"         // IWYU pragma: export

#include "sched/compressed_schedule.hpp"  // IWYU pragma: export
#include "sched/packed_key.hpp"     // IWYU pragma: export
#include "sched/pdb_scheduler.hpp"  // IWYU pragma: export
#include "sched/priority.hpp"       // IWYU pragma: export
#include "sched/ready_queue.hpp"    // IWYU pragma: export
#include "sched/reference_scheduler.hpp"  // IWYU pragma: export
#include "sched/schedule.hpp"       // IWYU pragma: export
#include "sched/sfq_scheduler.hpp"  // IWYU pragma: export
#include "sched/simulator.hpp"      // IWYU pragma: export
#include "sched/state_hash.hpp"     // IWYU pragma: export

#include "dvq/dvq_cycle.hpp"      // IWYU pragma: export
#include "dvq/dvq_schedule.hpp"   // IWYU pragma: export
#include "dvq/dvq_scheduler.hpp"  // IWYU pragma: export
#include "dvq/dvq_simulator.hpp"  // IWYU pragma: export
#include "dvq/reference_scheduler.hpp"  // IWYU pragma: export
#include "dvq/staggered.hpp"      // IWYU pragma: export
#include "dvq/yield.hpp"          // IWYU pragma: export

#include "edf/global_edf.hpp"        // IWYU pragma: export
#include "edf/jobs.hpp"              // IWYU pragma: export
#include "edf/partition.hpp"         // IWYU pragma: export
#include "edf/partitioned_edf.hpp"   // IWYU pragma: export
#include "edf/partitioned_pfair.hpp" // IWYU pragma: export

#include "analysis/blocking.hpp"         // IWYU pragma: export
#include "analysis/charged_free.hpp"     // IWYU pragma: export
#include "analysis/compliance.hpp"       // IWYU pragma: export
#include "analysis/hyperperiod.hpp"      // IWYU pragma: export
#include "analysis/lag.hpp"              // IWYU pragma: export
#include "analysis/overheads.hpp"        // IWYU pragma: export
#include "analysis/pdb_blocking.hpp"     // IWYU pragma: export
#include "analysis/recount.hpp"          // IWYU pragma: export
#include "analysis/sb_construction.hpp"  // IWYU pragma: export
#include "analysis/tardiness.hpp"        // IWYU pragma: export
#include "analysis/validity.hpp"         // IWYU pragma: export

#include "super/supertask.hpp"  // IWYU pragma: export

#include "workload/adversary.hpp"      // IWYU pragma: export
#include "workload/dynamic.hpp"        // IWYU pragma: export
#include "workload/generator.hpp"      // IWYU pragma: export
#include "workload/paper_figures.hpp"  // IWYU pragma: export

#include "dvq/decision_sink.hpp"  // IWYU pragma: export

#include "io/csv.hpp"       // IWYU pragma: export
#include "io/export.hpp"    // IWYU pragma: export
#include "io/json.hpp"      // IWYU pragma: export
#include "io/parse.hpp"       // IWYU pragma: export
#include "io/prometheus.hpp"  // IWYU pragma: export
#include "io/render.hpp"    // IWYU pragma: export
#include "io/svg.hpp"       // IWYU pragma: export
#include "io/table.hpp"     // IWYU pragma: export
#include "io/trace_io.hpp"  // IWYU pragma: export

#include "obs/audit.hpp"    // IWYU pragma: export
#include "obs/capture.hpp"  // IWYU pragma: export
