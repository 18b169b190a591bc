// Tests for the HTML fleet dashboard (src/obs/analysis/dashboard.h): the
// panel-id contract, the self-containment pledge (no scripts, no external
// fetches), byte determinism, rendering from precomputed analyses, the
// report-directory loader's round trip and its clean error paths (missing
// dir / missing trace.jsonl / wrong schema).
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "exp/config.h"
#include "exp/experiment_engine.h"
#include "exp/scheduler_spec.h"
#include "obs/analysis/dashboard.h"
#include "power/power_model.h"

namespace ge::obs::analysis {
namespace {

// A two-task report directory rendered by the engine, shared by the tests
// below (SetUpTestSuite keeps it to one simulation).
class DashboardFromEngine : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // ctest runs every discovered test as its own process; a pid suffix keeps
    // concurrent processes from racing on one report directory.
    dir_ = new std::string(::testing::TempDir() + "/dash_report_" +
                           std::to_string(::getpid()));
    exp::ExperimentPlan plan;
    exp::ExperimentConfig cfg = exp::ExperimentConfig::paper_defaults();
    cfg.duration = 1.0;
    cfg.seed = 91;
    cfg.arrival_rate = 130.0;
    cfg.num_servers = 2;
    cfg.dispatch = cluster::DispatchPolicy::kRoundRobin;
    for (const char* name : {"GE", "BE"}) {
      plan.add(cfg, exp::SchedulerSpec::parse(name), 0);
    }
    exp::ExecutionOptions exec;
    exec.telemetry.report_dir = *dir_;
    (void)exp::run_plan(plan, exec);
  }
  static void TearDownTestSuite() {
    delete dir_;
    dir_ = nullptr;
  }
  static std::string* dir_;
};

std::string* DashboardFromEngine::dir_ = nullptr;

std::string render(const std::vector<TaskInput>& inputs,
                   const DashboardOptions& options = {}) {
  std::ostringstream out;
  write_dashboard(out, inputs, options);
  return out.str();
}

TEST_F(DashboardFromEngine, PanelContractAndSelfContainment) {
  LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  ASSERT_EQ(loaded.inputs.size(), 2u);
  const std::string html = render(loaded.inputs);

  EXPECT_EQ(html.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(html.find("ge-dashboard-v1"), std::string::npos);
  // Self-containment: inline styles and SVG only.
  EXPECT_EQ(html.find("http://"), std::string::npos);
  EXPECT_EQ(html.find("https://"), std::string::npos);
  EXPECT_EQ(html.find("<script"), std::string::npos);
  EXPECT_NE(html.find("<svg"), std::string::npos);
  // Every panel, for both tasks, in write order.
  std::size_t pos = 0;
  for (int task = 0; task < 2; ++task) {
    for (const char* panel :
         {"summary", "gantt", "residency", "timelines", "lifecycle",
          "heatmap", "tenants", "reclaim"}) {
      const std::string id = "id=\"panel-" + std::string(panel) + "-" +
                             std::to_string(task) + "\"";
      const std::size_t at = html.find(id, pos);
      ASSERT_NE(at, std::string::npos) << id;
      pos = at;
    }
  }
}

TEST_F(DashboardFromEngine, BytesAreDeterministic) {
  LoadedReport a = load_report_dir(*dir_);
  LoadedReport b = load_report_dir(*dir_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(render(a.inputs), render(b.inputs));
}

// ge_report hands the dashboard the ReportWriter's analyses instead of
// analysing every task a second time; the page must not change.
TEST_F(DashboardFromEngine, PrecomputedAnalysesRenderTheSameBytes) {
  LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  DashboardOptions options;
  options.timeline_bins = 37;
  ReportWriter writer(options);
  for (const TaskInput& input : loaded.inputs) {
    writer.add_task(input);
  }
  std::ostringstream out;
  write_dashboard(out, loaded.inputs, writer.tasks(), writer.reclaims(),
                  options);
  EXPECT_EQ(out.str(), render(loaded.inputs, options));
}

TEST_F(DashboardFromEngine, GanttFallsBackAboveTheSliceCap) {
  LoadedReport loaded = load_report_dir(*dir_);
  ASSERT_TRUE(loaded.ok()) << loaded.error;
  DashboardOptions capped;
  capped.gantt_slice_cap = 1;  // force the binned fallback
  const std::string html = render(loaded.inputs, capped);
  EXPECT_NE(html.find("exceed the drawing cap"), std::string::npos);
  // The default cap draws individual slices and says nothing about binning.
  const std::string full = render(loaded.inputs);
  EXPECT_EQ(full.find("exceed the drawing cap"), std::string::npos);
}

TEST(LoadReportDir, MissingDirectoryIsACleanError) {
  const LoadedReport loaded = load_report_dir("definitely/not/a/report/dir");
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("not a report directory"), std::string::npos);
}

TEST(LoadReportDir, MissingReportMdIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_empty";
  std::filesystem::create_directories(dir);
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("report.md"), std::string::npos);
}

TEST(LoadReportDir, SchemaMismatchIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_badschema";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v0\n";
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("schema mismatch"), std::string::npos);
}

TEST(LoadReportDir, MissingTraceJsonlIsACleanError) {
  const std::string dir = ::testing::TempDir() + "/dash_notrace";
  std::filesystem::create_directories(dir);
  std::ofstream(dir + "/report.md") << "# report\n\nschema: ge-report-v1\n";
  const LoadedReport loaded = load_report_dir(dir);
  EXPECT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error.find("trace.jsonl"), std::string::npos);
}

}  // namespace
}  // namespace ge::obs::analysis
