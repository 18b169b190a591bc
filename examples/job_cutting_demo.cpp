// Fig. 2 as a runnable demo: Longest-First job cutting of four jobs.
//
// Prints the before/after demands, the quality of each job, and an ASCII
// rendition of the paper's figure.
#include <cstdio>
#include <string>
#include <vector>

#include "opt/job_cutter.h"
#include "quality/quality_function.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ge;
  const util::Flags flags(argc, argv);
  const double q_ge = flags.get_double("qge", 0.9);
  const double c = flags.get_double("c", 0.003);
  flags.exit_on_unknown("job_cutting_demo");

  const quality::ExponentialQuality f(c, 1000.0);
  const std::vector<double> demands{950.0, 700.0, 450.0, 200.0};

  const opt::CutResult cut = opt::cut_longest_first(demands, f, q_ge);

  std::printf("Longest-First job cutting (Fig. 2), Q_GE = %.2f, c = %g\n\n", q_ge, c);
  std::printf("%-6s %10s %10s %10s %10s %9s\n", "job", "demand", "cut", "kept%",
              "f(demand)", "f(cut)");
  double total = 0.0;
  double kept = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    std::printf("J%-5zu %10.1f %10.1f %9.1f%% %10.4f %9.4f\n", i + 1, demands[i],
                cut.targets[i], 100.0 * cut.targets[i] / demands[i],
                f.value(demands[i]), f.value(cut.targets[i]));
    total += demands[i];
    kept += cut.targets[i];
  }
  std::printf("\ncut level: %.1f units, iterations: %d\n", cut.level, cut.iterations);
  std::printf("batch quality: %.4f (target %.2f)\n", cut.quality, q_ge);
  std::printf("workload kept: %.1f / %.1f units (%.1f%%) -- quality %.0f%% costs "
              "only the least-efficient tails\n\n",
              kept, total, 100.0 * kept / total, cut.quality * 100.0);

  // ASCII picture: '#' = kept work, '.' = cut tail (1 char ~ 25 units).
  for (std::size_t i = 0; i < demands.size(); ++i) {
    std::string bar;
    const int kept_chars = static_cast<int>(cut.targets[i] / 25.0 + 0.5);
    const int cut_chars = static_cast<int>((demands[i] - cut.targets[i]) / 25.0 + 0.5);
    bar.append(static_cast<std::size_t>(kept_chars), '#');
    bar.append(static_cast<std::size_t>(cut_chars), '.');
    std::printf("J%zu |%s\n", i + 1, bar.c_str());
  }
  std::printf("    '#' executed head, '.' discarded tail\n");
  return 0;
}
