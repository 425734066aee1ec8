// `tmedb run` against the library: the CLI's default Steiner method must be
// the documented SPT, so the default run saves exactly the schedule that
// sim::Workbench produces with SteinerMethod::kShortestPath; any --steiner
// value other than spt or greedy is a usage error (exit 2).
#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

}  // namespace
}  // namespace tveg::sim
