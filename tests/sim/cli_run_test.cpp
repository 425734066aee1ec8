// `tmedb run` against the library: the CLI's default Steiner method must be
// the documented SPT, so the default run saves exactly the schedule that
// sim::Workbench produces with SteinerMethod::kShortestPath; any --steiner
// value other than spt or greedy is a usage error (exit 2). Also pins the
// per-request budget surface of `run` and `sweep`: --request-budget-ms 0
// lands every EEDCB request on the GREED rung, and the removed governance
// flags are usage errors.
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/schedule_io.hpp"
#include "sim/experiment.hpp"
#include "trace/io.hpp"

namespace tveg::sim {
namespace {

const std::string kTrace = std::string(TVEG_DATA_DIR) + "/haggle_like_n20.trace";

/// Runs tmedb with `args` (stdout and stderr discarded); its exit code.
int run_tmedb(const std::string& args) {
  const std::string command =
      std::string(TVEG_TMEDB) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs tmedb with `args` (stderr discarded); its stdout and exit code.
struct Captured {
  std::string out;
  int code = -1;
};
Captured capture_tmedb(const std::string& args) {
  const std::string command =
      std::string(TVEG_TMEDB) + " " + args + " 2> /dev/null";
  Captured captured;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return captured;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0)
    captured.out.append(buffer, n);
  const int status = pclose(pipe);
  captured.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return captured;
}

/// The EEDCB column (second cell) of every data row of a sweep table.
std::vector<std::string> eedcb_cells(const std::string& table) {
  std::vector<std::string> cells;
  std::istringstream lines(table);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("|", 0) != 0 || line.find("deadline_s") != std::string::npos)
      continue;
    std::istringstream row(line.substr(1));
    std::string deadline;
    std::string eedcb;
    std::getline(row, deadline, '|');
    std::getline(row, eedcb, '|');
    const std::size_t first = eedcb.find_first_not_of(' ');
    const std::size_t last = eedcb.find_last_not_of(' ');
    cells.push_back(eedcb.substr(first, last - first + 1));
  }
  return cells;
}

TEST(CliRun, DefaultSteinerSavesTheLibrarySptSchedule) {
  const std::string saved = ::testing::TempDir() + "cli_default_run.sched";
  ASSERT_EQ(run_tmedb("run " + kTrace +
                      " --deadline 6000 --trials 10 --save-schedule " + saved),
            0);
  std::ifstream in(saved);
  ASSERT_TRUE(in.good()) << "tmedb saved no schedule to " << saved;
  std::stringstream cli;
  cli << in.rdbuf();

  auto trace = trace::parse_trace_file(kTrace);
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  Workbench::Options options;
  options.steiner_method = core::SteinerMethod::kShortestPath;
  const Workbench bench(trace.value(), paper_radio(), options);
  std::ostringstream library;
  core::write_schedule(library,
                       bench.run(Algorithm::kEedcb, 0, 6000.0).schedule);
  EXPECT_EQ(cli.str(), library.str());
}

TEST(CliRun, UnknownSteinerIsAUsageError) {
  EXPECT_EQ(run_tmedb("run " + kTrace + " --steiner dijkstra"), 2);
}

TEST(CliRun, ZeroRequestBudgetSweepDegradesEveryEedcbCell) {
  const Captured sweep = capture_tmedb(
      "sweep " + kTrace +
      " --from 2000 --to 6000 --step 2000 --request-budget-ms 0");
  ASSERT_EQ(sweep.code, 0) << sweep.out;
  const std::vector<std::string> cells = eedcb_cells(sweep.out);
  ASSERT_EQ(cells.size(), 3u) << sweep.out;
  for (const std::string& cell : cells)
    EXPECT_EQ(cell.back(), '*') << "undegraded EEDCB cell '" << cell << "'";
}

TEST(CliRun, ZeroRequestBudgetRunReportsTheGreedRung) {
  const Captured run = capture_tmedb("run " + kTrace +
                                     " --deadline 6000 --trials 10"
                                     " --request-budget-ms 0");
  ASSERT_EQ(run.code, 0) << run.out;
  EXPECT_NE(run.out.find("solver rung:        greed\n"), std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("degraded:         timeout"), std::string::npos)
      << run.out;
}

TEST(CliRun, RequestBudgetAppliesToEedcbOnly) {
  EXPECT_EQ(run_tmedb("run " + kTrace +
                      " --algorithm GREED --request-budget-ms 10"),
            2);
}

TEST(CliRun, MaxInflightIsAUsageError) {
  EXPECT_EQ(run_tmedb("run " + kTrace + " --max-inflight 1"), 2);
  EXPECT_EQ(run_tmedb("sweep " + kTrace + " --max-inflight 1"), 2);
}

TEST(CliRun, StallMsIsAUsageError) {
  EXPECT_EQ(run_tmedb("run " + kTrace + " --stall-ms 1000"), 2);
  EXPECT_EQ(run_tmedb("sweep " + kTrace + " --stall-ms 1000"), 2);
}

TEST(CliRun, ShedFlagIsAUsageError) {
  EXPECT_EQ(run_tmedb("run " + kTrace + " --shed-policy degrade"), 2);
  EXPECT_EQ(run_tmedb("sweep " + kTrace + " --shed-policy error"), 2);
}

}  // namespace
}  // namespace tveg::sim
