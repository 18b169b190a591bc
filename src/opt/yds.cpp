#include "opt/yds.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>
#include <queue>
#include <utility>

#include "power/power_model.h"
#include "util/check.h"

namespace ge::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using Segment = std::pair<double, double>;

// A job of one independent instance; `id` indexes the input span.
struct Item {
  double release = 0.0;
  double deadline = 0.0;
  double work = 0.0;
  std::size_t id = 0;
};

// Disjoint sorted intervals of available time.  cum_[i] is the measure of
// the intervals before i, so M(t) is a binary search.
class Availability {
 public:
  explicit Availability(std::vector<Segment> ivs) : ivs_(std::move(ivs)) {
    cum_.assign(ivs_.size() + 1, 0.0);
    for (std::size_t i = 0; i < ivs_.size(); ++i) {
      cum_[i + 1] = cum_[i] + (ivs_[i].second - ivs_[i].first);
    }
  }

  // Total availability in (-inf, t].
  double cum_at(double t) const {
    const std::size_t i = locate(t);
    return i < ivs_.size() && ivs_[i].first < t ? cum_[i] + (t - ivs_[i].first)
                                                : cum_[i];
  }

  double total() const { return cum_.back(); }
  const std::vector<Segment>& segments() const { return ivs_; }

  std::vector<Segment> intersect(double t1, double t2) const {
    std::vector<Segment> out;
    for (std::size_t i = locate(t1); i < ivs_.size() && ivs_[i].first < t2;
         ++i) {
      out.emplace_back(std::max(ivs_[i].first, t1),
                       std::min(ivs_[i].second, t2));
    }
    return out;
  }

  // The available time outside `cut` (disjoint, sorted).
  std::vector<Segment> without(const std::vector<Segment>& cut) const {
    std::vector<Segment> out;
    double from = -kInf;
    for (std::size_t k = 0; k <= cut.size(); ++k) {
      const double to = k < cut.size() ? cut[k].first : kInf;
      if (from < to) {
        const std::vector<Segment> gap = intersect(from, to);
        out.insert(out.end(), gap.begin(), gap.end());
      }
      from = k < cut.size() ? cut[k].second : to;
    }
    return out;
  }

 private:
  // First interval ending after t.
  std::size_t locate(double t) const {
    const auto ends_after = [](double v, const Segment& s) {
      return v < s.second;
    };
    return static_cast<std::size_t>(
        std::upper_bound(ivs_.begin(), ivs_.end(), t, ends_after) -
        ivs_.begin());
  }

  std::vector<Segment> ivs_;
  std::vector<double> cum_;
};

// Max-plus segment tree over the release points: prefix adds, leaf sets and
// the max with its argmax (the leftmost on ties).  A node holds its
// subtree's max including its own pending add, so nothing is pushed down; a
// leaf may be set only while no add has covered it.
class PrefixMaxTree {
 public:
  explicit PrefixMaxTree(std::size_t n) : size_(std::bit_ceil(n)) {
    max_.assign(2 * size_, -kInf);
    arg_.assign(2 * size_, 0);
    add_.assign(2 * size_, 0.0);
  }

  void set(std::size_t i, double value) {
    std::size_t x = size_ + i;
    max_[x] = value;
    arg_[x] = i;
    pull_above(x);
  }

  // Leaves [0, count) += w.
  void add_prefix(std::size_t count, double w) {
    std::size_t x = 1;
    std::size_t lo = 0;
    std::size_t width = size_;
    while (lo + width > count) {
      width /= 2;
      if (count <= lo + width) {
        x = 2 * x;
      } else {
        max_[2 * x] += w;
        add_[2 * x] += w;
        x = 2 * x + 1;
        lo += width;
      }
    }
    max_[x] += w;
    add_[x] += w;
    pull_above(x);
  }

  // The max over all leaves, and its leaf.
  std::pair<double, std::size_t> top() const { return {max_[1], arg_[1]}; }

 private:
  void pull_above(std::size_t x) {
    for (x /= 2; x >= 1; x /= 2) {
      const std::size_t c = max_[2 * x + 1] > max_[2 * x] ? 2 * x + 1 : 2 * x;
      max_[x] = max_[c] + add_[x];
      arg_[x] = arg_[c];
    }
  }

  std::size_t size_;
  std::vector<double> max_;
  std::vector<std::size_t> arg_;
  std::vector<double> add_;
};

// The set of disjoint intervals [t1, t2] (t1 a release, t2 a deadline)
// maximising the sum of W(t1, t2) - g * (available time in [t1, t2]), where
// W sums the jobs inside the interval; empty when nothing beats zero.  One sweep over
// the deadlines: leaf i holds F(r_i) + W(r_i, t2) + g * M(r_i), where F(t)
// is the best sum over intervals ending by t and M the cumulative available
// time.  Leaves enter as the sweep passes their release, so the best
// interval ending at t2 is the tree's max.  `jobs` are in deadline order.
std::vector<Segment> densest_intervals(const std::vector<Item>& jobs,
                                       const Availability& avail, double g) {
  std::vector<double> releases;
  for (const Item& j : jobs) {
    releases.push_back(j.release);
  }
  std::sort(releases.begin(), releases.end());
  releases.erase(std::unique(releases.begin(), releases.end()), releases.end());
  auto count_below = [&](double t) {
    return static_cast<std::size_t>(
        std::lower_bound(releases.begin(), releases.end(), t) -
        releases.begin());
  };

  PrefixMaxTree tree(releases.size());
  std::vector<std::size_t> settled(releases.size());  // deadlines swept at r_i
  std::vector<std::size_t> pick;  // per deadline: the chosen leaf + 1, or 0
  std::vector<double> deadlines;
  double best = 0.0;  // F over the deadlines swept so far
  std::size_t entered = 0;
  for (std::size_t p = 0; p < jobs.size();) {
    const double t2 = jobs[p].deadline;
    const std::size_t below = count_below(t2);
    for (; entered < below; ++entered) {
      settled[entered] = deadlines.size();
      tree.set(entered, best + g * avail.cum_at(releases[entered]));
    }
    for (; p < jobs.size() && jobs[p].deadline == t2; ++p) {
      tree.add_prefix(count_below(jobs[p].release) + 1, jobs[p].work);
    }
    const auto [value, leaf] = tree.top();
    const double candidate = value - g * avail.cum_at(t2);
    deadlines.push_back(t2);
    pick.push_back(candidate > best ? leaf + 1 : 0);
    best = std::max(best, candidate);
  }

  std::vector<Segment> out;
  for (std::size_t k = deadlines.size(); k > 0;) {
    if (const std::size_t leaf = pick[--k]; leaf > 0) {
      out.emplace_back(releases[leaf - 1], deadlines[k]);
      k = settled[leaf - 1];
    }
  }
  std::reverse(out.begin(), out.end());
  return out;
}

// Preemptive EDF of `crit` (windows inside the segments' hull, sorted by
// (deadline, id)) at constant speed over the availability segments.  YDS
// guarantees the critical work exactly fills the segments, so any
// floating-point residue below `work_eps` is dropped.
void edf_place(const std::vector<Item>& crit, double speed,
               const std::vector<Segment>& segments, double work_eps,
               std::vector<YdsSlice>* slices) {
  std::vector<std::size_t> by_release(crit.size());
  std::vector<double> rem(crit.size());
  for (std::size_t i = 0; i < crit.size(); ++i) {
    by_release[i] = i;
    rem[i] = crit[i].work;
  }
  std::sort(by_release.begin(), by_release.end(),
            [&](std::size_t a, std::size_t b) {
              return crit[a].release < crit[b].release;
            });
  // Positions in `crit` are (deadline, id) ranks: the smallest is EDF's pick,
  // whatever order equal releases enter in.
  std::priority_queue<std::size_t, std::vector<std::size_t>,
                      std::greater<std::size_t>>
      ready;
  std::size_t next_rel = 0;
  for (const auto& [seg_lo, seg_hi] : segments) {
    double t = seg_lo;
    while (t < seg_hi) {
      while (next_rel < by_release.size() &&
             crit[by_release[next_rel]].release <= t) {
        ready.push(by_release[next_rel++]);
      }
      if (ready.empty()) {
        if (next_rel >= by_release.size()) {
          return;  // everything placed; trailing segment time unused (FP)
        }
        // Idle until the next release (it lands in this segment or later).
        t = std::max(t, crit[by_release[next_rel]].release);
        continue;
      }
      const std::size_t j = ready.top();
      double run_until = std::min(seg_hi, t + rem[j] / speed);
      if (next_rel < by_release.size()) {
        run_until = std::min(run_until, crit[by_release[next_rel]].release);
      }
      if (run_until <= t) {
        // No representable progress: the residue is below FP resolution.
        ready.pop();
        continue;
      }
      slices->push_back({t, run_until, speed, crit[j].id});
      rem[j] -= speed * (run_until - t);
      t = run_until;
      if (rem[j] <= work_eps) {
        ready.pop();
      }
    }
  }
}

// Jobs with the available time their windows may use.
struct Instance {
  std::vector<Item> jobs;
  Availability avail;
};

// Windows that do not overlap never share a critical interval: splits
// `jobs` at every point no window crosses and queues the pieces, each in
// deadline order with its share of `avail`.
void split(std::vector<Item> jobs, const Availability& avail,
           std::vector<Instance>* queue) {
  std::sort(jobs.begin(), jobs.end(), [](const Item& a, const Item& b) {
    return a.release < b.release;
  });
  std::size_t first = 0;
  double reach = -kInf;
  for (std::size_t i = 0; i <= jobs.size(); ++i) {
    if (i == jobs.size() || (i > first && jobs[i].release >= reach)) {
      if (i > first) {
        std::vector<Item> piece(jobs.data() + first, jobs.data() + i);
        std::sort(piece.begin(), piece.end(), [](const Item& a, const Item& b) {
          return a.deadline != b.deadline ? a.deadline < b.deadline
                                          : a.id < b.id;
        });
        queue->push_back(
            {std::move(piece), Availability(avail.intersect(
                                   jobs[first].release, reach))});
      }
      first = i;
    }
    if (i < jobs.size()) {
      reach = std::max(reach, jobs[i].deadline);
    }
  }
}

}  // namespace

// Decomposition at the average speed g of a connected instance: the jobs
// inside the densest interval set run faster than g, the others no faster.
// The dense part is solved inside its intervals and the rest with those
// intervals excised; an instance with nothing denser than g is one block.
YdsPlacement yds_place(std::span<const YdsJob> input) {
  YdsPlacement out;
  out.speed.assign(input.size(), 0.0);
  std::vector<Item> items;
  double total_work = 0.0;
  for (std::size_t i = 0; i < input.size(); ++i) {
    const YdsJob& job = input[i];
    if (job.work <= 0.0) {
      continue;
    }
    GE_CHECK(job.deadline > job.release,
             "YDS job needs a positive execution window");
    items.push_back({job.release, job.deadline, job.work, i});
    total_work += job.work;
  }
  const double work_eps = 1e-9 * std::max(1.0, total_work);

  std::vector<Instance> queue;
  split(std::move(items), Availability({{-kInf, kInf}}), &queue);
  while (!queue.empty()) {
    const Instance inst = std::move(queue.back());
    queue.pop_back();
    YdsBlock block;
    for (const Item& j : inst.jobs) {
      block.work += j.work;
    }
    block.duration = inst.avail.total();
    GE_CHECK(block.duration > 0.0, "YDS: ran out of available time");
    block.speed = block.work / block.duration;
    block.jobs = inst.jobs.size();

    // A lone job is its own block.
    const std::vector<Segment> dense =
        block.jobs > 1 ? densest_intervals(inst.jobs, inst.avail, block.speed)
                       : std::vector<Segment>{};
    std::vector<std::vector<Item>> inside(dense.size());
    std::vector<Availability> inside_avail;
    std::vector<Item> rest;
    double dense_work = 0.0;
    double dense_time = 0.0;
    for (const Segment& iv : dense) {
      inside_avail.emplace_back(inst.avail.intersect(iv.first, iv.second));
      dense_time += inside_avail.back().total();
    }
    std::size_t k = 0;  // the only interval that can hold the next job
    for (const Item& j : inst.jobs) {
      while (k < dense.size() && dense[k].second < j.deadline) {
        ++k;
      }
      if (k < dense.size() && dense[k].first <= j.release) {
        inside[k].push_back(j);
        dense_work += j.work;
      } else {
        rest.push_back(j);
      }
    }
    // Split only when the dense part is truly denser (an empty or full
    // part, or a gain below rounding, means the instance is one block).
    if (!rest.empty() && dense_work > block.speed * dense_time) {
      for (k = 0; k < dense.size(); ++k) {
        split(std::move(inside[k]), inside_avail[k], &queue);
      }
      split(std::move(rest), Availability(inst.avail.without(dense)), &queue);
      continue;
    }
    out.blocks.push_back(block);
    for (const Item& j : inst.jobs) {
      out.speed[j.id] = block.speed;
    }
    edf_place(inst.jobs, block.speed, inst.avail.segments(), work_eps,
              &out.slices);
  }
  std::stable_sort(out.blocks.begin(), out.blocks.end(),
                   [](const YdsBlock& a, const YdsBlock& b) {
                     return a.speed > b.speed;
                   });
  return out;
}

double YdsSchedule::total_work() const {
  double total = 0.0;
  for (const YdsBlock& block : blocks) {
    total += block.work;
  }
  return total;
}

double YdsSchedule::max_speed() const {
  double best = 0.0;
  for (const YdsBlock& block : blocks) {
    best = std::max(best, block.speed);
  }
  return best;
}

double YdsSchedule::energy(const power::PowerModel& pm) const {
  double total = 0.0;
  for (const YdsBlock& block : blocks) {
    total += pm.power(block.speed) * block.duration;
  }
  return total;
}

YdsSchedule yds_schedule(std::span<const YdsJob> jobs) {
  return YdsSchedule{yds_place(jobs).blocks};
}

double yds_min_energy(std::span<const YdsJob> jobs, const power::PowerModel& pm) {
  return yds_schedule(jobs).energy(pm);
}

}  // namespace ge::opt
