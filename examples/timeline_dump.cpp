// Observability: record a state timeline of one GE run -- total power,
// monitored quality, busy cores, backlog and execution mode -- save it as
// CSV and render an ASCII power/mode strip.  Great for *seeing* compensation
// episodes and the ES<->WF hybrid switch during a burst.
//
//   ./timeline_dump [--rate 170] [--seconds 20] [--burst 1.0]
//                   [--file /tmp/ge_timeline.csv]
#include <cstdio>
#include <string>

#include "exp/config.h"
#include "exp/runner.h"
#include "exp/scheduler_spec.h"
#include "exp/timeline.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
  cfg.arrival_rate = flags.get_double("rate", 170.0);
  cfg.duration = flags.get_double("seconds", 20.0);
  cfg.burst_peak_to_mean = flags.get_double("burst", 1.0);
  cfg.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2));
  const std::string path = flags.get_string("file", "/tmp/ge_timeline.csv");

  const workload::Trace trace =
      workload::Trace::generate(cfg.workload_spec(), cfg.duration);
  exp::Timeline timeline;
  timeline.interval = flags.get_double("interval", 0.05);
  flags.exit_on_unknown("timeline_dump");
  const exp::RunResult r = exp::run_simulation(cfg, exp::SchedulerSpec::parse("GE"),
                                               trace, &timeline);
  timeline.save_csv(path);

  std::printf("GE run: %.0f req/s for %.0f s (burst ratio %.1f)\n", cfg.arrival_rate,
              cfg.duration, cfg.burst_peak_to_mean);
  std::printf("quality %.4f, energy %.1f J, peak sampled power %.1f W (budget %.0f)\n",
              r.quality, r.energy, timeline.peak_power(), cfg.power_budget);
  std::printf("%zu samples every %.0f ms -> %s (BQ share %.1f%%)\n\n",
              timeline.points.size(), timeline.interval * 1000.0, path.c_str(),
              timeline.bq_share() * 100.0);

  // ASCII strip: one character per ~0.5 s bucket.  Height = power decile;
  // lower-case = AES, upper-case = BQ.
  const std::size_t per_bucket =
      std::max<std::size_t>(1, static_cast<std::size_t>(0.5 / timeline.interval));
  std::string strip;
  for (std::size_t i = 0; i < timeline.points.size(); i += per_bucket) {
    double power = 0.0;
    bool bq = false;
    std::size_t n = 0;
    for (std::size_t j = i; j < std::min(i + per_bucket, timeline.points.size());
         ++j) {
      power += timeline.points[j].total_power;
      bq = bq || timeline.points[j].mode == 1;
      ++n;
    }
    power /= static_cast<double>(n);
    const int decile =
        std::min(9, static_cast<int>(10.0 * power / cfg.power_budget));
    strip.push_back(static_cast<char>((bq ? 'A' : 'a') + decile));
  }
  std::printf("power strip (a..j = 0-100%% of budget; upper-case = BQ episode):\n%s\n",
              strip.c_str());
  return 0;
}
