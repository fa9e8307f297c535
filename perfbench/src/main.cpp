// desmine end-to-end benchmark driver.
//
//   perfbench --workload <mine|serve_overlap|serve_distinct|detect_batch>
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//             [--build-key KEY] [--corrupt score|digest|artifact]
//   perfbench --prepare-artifact --work-dir DIR --build-key KEY
//
// Prints one JSON line of context, then the result line
// {"correct", "attempted", "failed", "metrics"}. Exits 1 when a
// correctness check fails. perfbench/run.py builds this binary and is the
// command to run.
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "obs/log.h"
#include "tensor/kernels.h"
#include "util/version.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") args.workload = value();
      else if (a == "--seed") args.seed = std::stoull(value());
      else if (a == "--seconds") args.seconds = std::stod(value());
      else if (a == "--trace") args.trace = value() == "1";
      else if (a == "--work-dir") args.work_dir = value();
      else if (a == "--build-key") args.build_key = value();
      else if (a == "--corrupt") args.corrupt = value();
      else if (a == "--prepare-artifact") args.prepare_artifact = true;
      else throw std::invalid_argument("unknown argument " + a);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 2;
    }
  }
  desmine::obs::logger().set_level(desmine::obs::parse_level("warn"));
  // The artifact cache is keyed by the source tree and by this build's id.
  args.build_key += std::string("-") + desmine::util::desmine_version();
  for (char& c : args.build_key) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' && c != '.') c = '_';
  }
  if (args.prepare_artifact) return prepare_artifact(args);

  warm_up(kPoolThreads, std::chrono::seconds(1));
  Report report;
  report.info("workload", json_string(args.workload));
  report.info("seed", std::to_string(args.seed));
  report.info("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.info("version", json_string(desmine::util::desmine_version()));
  report.info("kernel_backend",
              json_string(desmine::tensor::kernels::backend_name(
                  desmine::tensor::kernels::active_backend())));
  try {
    if (args.workload == "mine") run_mine(args, report);
    else if (args.workload == "serve_overlap") run_serve(args, false, report);
    else if (args.workload == "serve_distinct") run_serve(args, true, report);
    else if (args.workload == "detect_batch") run_detect(args, report);
    else report.check(false, "unknown workload " + args.workload);
  } catch (const std::exception& e) {
    report.check(false, std::string("exception: ") + e.what());
  }
  if (report.attempted == 0) report.check(false, "nothing was attempted");
  report.print();
  return report.correct() ? 0 : 1;
}
