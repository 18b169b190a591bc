// Full Yao-Demers-Shenker (FOCS'95) minimal-energy speed scheduling for
// preemptive jobs with arbitrary release times and deadlines.  This is the
// one general-release YDS engine of the library: the offline reference
// (exp/offline_reference.h, and through it the "YDS" pseudo-scheduler) and
// the reclaim advisor (obs/analysis/reclaim.h) are both built on it.  The
// all-released staircase the GE planner runs online lives in energy_opt.h.
//
// YDS runs every job at the intensity of its critical interval,
//
//     g(t1, t2) = (work of jobs with [r_j, d_j] subseteq [t1, t2])
//                 / (available time in [t1, t2]),
//
// where available time excludes the intervals of faster jobs.  The engine
// splits an instance at its average speed g: one sweep over the deadlines,
// with a max-plus lazy segment tree over the release points, finds the
// disjoint intervals maximising the sum of W - g * (available time).  The
// jobs inside them run faster than g and are solved inside those intervals;
// the others are solved with the intervals excised.  An instance with
// nothing denser than g is one block, placed by preemptive EDF.  Each level
// of the split costs O(n log n), and jobs whose windows do not overlap are
// solved separately (docs/ALGORITHMS.md, section 5).
#pragma once

#include <span>
#include <vector>

namespace ge::power {
class PowerModel;
}

namespace ge::opt {

struct YdsJob {
  double release = 0.0;
  double deadline = 0.0;  // > release
  double work = 0.0;      // units; jobs with zero work are ignored
};

struct YdsBlock {
  double duration = 0.0;  // seconds of available time in the interval
  double speed = 0.0;     // units/second
  double work = 0.0;      // speed * duration
  std::size_t jobs = 0;   // number of jobs completed in this block
};

struct YdsSchedule {
  // Critical blocks; speeds are non-increasing.
  std::vector<YdsBlock> blocks;

  double total_work() const;
  double max_speed() const;
  // Energy of executing the blocks on one machine with the given model.
  double energy(const power::PowerModel& pm) const;
};

// One real-time slice of a placed schedule: input job `job` runs at `speed`
// over [start, end].
struct YdsSlice {
  double start = 0.0;
  double end = 0.0;
  double speed = 0.0;
  std::size_t job = 0;  // index into the input span
};

struct YdsPlacement {
  std::vector<YdsBlock> blocks;  // as YdsSchedule::blocks
  std::vector<double> speed;     // per input job: its block's speed (0 when
                                 // the job has no work)
  // Preemptive EDF slices at the block speeds, block by block.  Slices lie
  // inside their job's window, never overlap, and carry each job's work up
  // to a floating-point residue of 1e-9 * max(1, total work).
  std::vector<YdsSlice> slices;
};

// Computes the YDS schedule with its real-time placement.  Jobs may be in
// any order.
YdsPlacement yds_place(std::span<const YdsJob> jobs);

// The critical blocks of yds_place.
YdsSchedule yds_schedule(std::span<const YdsJob> jobs);

// Minimal energy of the instance under the power model (convenience).
double yds_min_energy(std::span<const YdsJob> jobs, const power::PowerModel& pm);

}  // namespace ge::opt
