// Integration tests for the desmine_cli exit-code contract (README.md):
//   0    success
//   1    runtime failure
//   2    usage error
//   3    training completed but some pairs permanently failed
//   4    detection completed degraded (windows below the coverage quorum)
// The CLI binary path is injected by CMake as DESMINE_CLI_PATH (and the
// serve binary's as DESMINE_SERVE_PATH); faults are injected into the
// spawned process via the DESMINE_FAULTS environment variable (see
// robust::FaultInjector).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <pthread.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "io/config_flags.h"

namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name)
      : path("/tmp/desmine_cli_" + name) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

/// Run a shell command line; its exit code, or -1 if it died on a signal.
int run_shell(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

/// Run the CLI with `args` (and an optional DESMINE_FAULTS value for the
/// child only) and return its exit code; -1 if it died on a signal.
int run_cli(const std::string& args, const std::string& faults = "") {
  std::string cmd;
  if (!faults.empty()) cmd += "DESMINE_FAULTS='" + faults + "' ";
  return run_shell(cmd + DESMINE_CLI_PATH + " " + args + " >/dev/null 2>&1");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Tiny plant CSVs shared by the train tests (generated once).
struct Corpora {
  TempFile train{"train.csv"};
  TempFile dev{"dev.csv"};
  Corpora() {
    EXPECT_EQ(run_cli("generate --out " + train.path +
                      " --days 2 --minutes 40 --seed 7 --components 1"),
              0);
    EXPECT_EQ(run_cli("generate --out " + dev.path +
                      " --days 1 --minutes 40 --seed 8 --components 1"),
              0);
  }
};

Corpora& corpora() {
  static Corpora c;
  return c;
}

/// train invocation small enough for an integration test.
std::string tiny_train_args(const std::string& out) {
  return "train --train " + corpora().train.path + " --dev " +
         corpora().dev.path + " --out " + out +
         " --word 3 --sentence 4 --sentence-stride 4"
         " --embedding 8 --hidden 8 --layers 1 --dropout 0"
         " --steps 5 --batch 4 --threads 1 --max-retries 1";
}

}  // namespace

TEST(CliExitCodes, NoArgumentsIsUsageError) { EXPECT_EQ(run_cli(""), 2); }

TEST(CliExitCodes, UnknownCommandIsUsageError) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
}

TEST(CliExitCodes, MissingOptionValueIsUsageError) {
  EXPECT_EQ(run_cli("generate --out"), 2);
}

TEST(CliExitCodes, MissingRequiredOptionIsUsageError) {
  EXPECT_EQ(run_cli("generate"), 2);
}

TEST(CliExitCodes, UnknownOptionIsUsageError) {
  const TempFile csv("unknown_opt.csv");
  // A removed option and a typo are both rejected, never silently ignored.
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --precision int8"), 2);
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --dayz 1"), 2);
}

TEST(CliExitCodes, NonNumericValueIsUsageError) {
  const TempFile csv("non_numeric.csv");
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --days abc"), 2);
  // Whole-number options refuse negative and fractional values too.
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --days -1"), 2);
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --components 1.5"), 2);
  // A period too long for the clock's integer ticks.
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --metrics-out " +
                    csv.path + ".json --metrics-interval-s 1e300"),
            2);
}

TEST(CliExitCodes, MetricsIntervalOutsideItsRangeIsUsageError) {
  const TempFile csv("interval.csv");
  const TempFile metrics("interval_metrics.json");
  const std::string run =
      "generate --out " + csv.path + " --days 1 --minutes 10 --metrics-out " +
      metrics.path + " --metrics-interval-s ";
  // A value <= 0 must not quietly switch periodic flushing off.
  for (const char* bad : {"0", "-5", "86400.5"}) {
    EXPECT_EQ(run_cli(run + bad), 2) << bad;
  }
  EXPECT_EQ(run_cli(run + "86400"), 0);
}

TEST(CliUsage, EveryKnobFlagIsListedWithItsTableDefault) {
  const TempFile err("usage.txt");
  for (const auto& [tool, sections] :
       std::vector<std::pair<std::string, std::vector<std::string_view>>>{
           {DESMINE_CLI_PATH, {"window", "miner", "detector", "health", "tensor"}},
           {DESMINE_SERVE_PATH, {"detector", "health", "serve", "tensor"}}}) {
    EXPECT_EQ(run_shell(tool + " --no-such-option 2>" + err.path), 2);
    const std::string usage = slurp(err.path);
    std::size_t listed = 0;
    for (const std::string_view section : sections) {
      for (const auto& f : desmine::io::knob_flags({section})) {
        const std::string line = "\n  --" + f.name + " " + f.default_value + " ";
        const std::size_t at = usage.find(line);
        EXPECT_NE(at, std::string::npos) << tool << ": " << line;
        if (at != std::string::npos) {
          EXPECT_EQ(usage.substr(usage.find_first_not_of(' ', at + line.size()),
                                 f.key.size()),
                    f.key);
        }
        ++listed;
      }
    }
    EXPECT_GT(listed, 10u);
  }
  // Spot checks against the RunConfig defaults.
  const std::string serve_usage = slurp(err.path);
  EXPECT_NE(serve_usage.find("--max-batch 32 "), std::string::npos);
  EXPECT_NE(serve_usage.find("--decode-cache 256 "), std::string::npos);
}

TEST(CliExitCodes, OutOfRangeFlagIsUsageError) {
  // Each value is one the same key in a --config file is refused for; the
  // error names the flag and its dotted key.
  const TempFile err("range_err.txt");
  const std::string cli = std::string(DESMINE_CLI_PATH) + " train";
  const std::string serve = DESMINE_SERVE_PATH;
  for (const auto& [cmd, flag, key] :
       std::vector<std::tuple<std::string, std::string, std::string>>{
           {serve + " --workers -1", "--workers", "serve.workers"},
           {serve + " --telemetry-port 99999", "--telemetry-port",
            "serve.telemetry_port"},
           {serve + " --max-batch 0", "--max-batch", "serve.max_batch"},
           {serve + " --health-unk-rate 7", "--health-unk-rate",
            "health.max_unk_rate"},
           {cli + " --lo 80 --hi 20", "--lo", "detector.valid_lo"},
           {cli + " --word 0", "--word", "window.word_length"},
           {cli + " --steps -3", "--steps", "miner.trainer.steps"},
           {cli + " --dropout 1", "--dropout", "miner.model.dropout"},
           {cli + " --seed 1.5", "--seed", "miner.seed"}}) {
    EXPECT_EQ(run_shell(cmd + " --dump-config >/dev/null 2>" + err.path), 2)
        << cmd;
    const std::string msg = slurp(err.path);
    EXPECT_NE(msg.find(flag), std::string::npos) << msg;
    EXPECT_NE(msg.find(key), std::string::npos) << msg;
  }
}

TEST(CliExitCodes, DumpConfigWithFlagsReReadsToTheSameBytes) {
  const TempFile first("dump_first.json");
  const TempFile second("dump_second.json");
  for (const std::string& tool :
       {std::string(DESMINE_CLI_PATH) +
            " train --seed 1234567890123 --lr 0.003 --dropout 0.35 --word 7"
            " --lo 60 --hi 99.5 --resume --checkpoint ck.jsonl --kernels "
            "scalar --health-unk-rate 0.3",
        std::string(DESMINE_SERVE_PATH) +
            " --workers 3 --telemetry-port 9100 --reject-when-full"
            " --max-queue-delay-ms 12.5 --min-coverage 0.6 --kernels scalar"}) {
    ASSERT_EQ(run_shell(tool + " --dump-config >" + first.path), 0) << tool;
    const std::string dump = slurp(first.path);
    ASSERT_EQ(run_shell(tool.substr(0, tool.find(" --")) + " --config " +
                        first.path + " --dump-config >" + second.path),
              0);
    EXPECT_EQ(slurp(second.path), dump) << tool;
    if (tool.find("--seed") != std::string::npos) {
      EXPECT_NE(dump.find("\"seed\": 1234567890123,"), std::string::npos);
      EXPECT_NE(dump.find("\"lr\": 0.003,"), std::string::npos);
    }
  }
}

TEST(CliExitCodes, OversizedConfigFileIsUsageError) {
  // Valid JSON, but over the 1 MiB cap: refused unread, naming path and cap.
  const TempFile config("big.json");
  const TempFile err("big_err.txt");
  {
    std::ofstream out(config.path);
    out << std::string(std::size_t{1} << 20, ' ') << "{}"
        << std::string(std::size_t{1} << 20, ' ');
  }
  EXPECT_EQ(run_shell(std::string(DESMINE_CLI_PATH) + " train --config " +
                      config.path + " --dump-config >/dev/null 2>" + err.path),
            2);
  const std::string msg = slurp(err.path);
  EXPECT_NE(msg.find(config.path), std::string::npos) << msg;
  EXPECT_NE(msg.find("1048576"), std::string::npos) << msg;
}

TEST(CliExitCodes, ListenPortOutOfRangeIsUsageError) {
  // Checked before the model is opened: a missing model would exit 1.
  const std::string serve = std::string(DESMINE_SERVE_PATH) +
                            " --model /tmp/desmine_cli_no_such_model.bin";
  EXPECT_EQ(run_shell(serve + " --listen 70000 </dev/null >/dev/null 2>&1"),
            2);
  EXPECT_EQ(run_shell(serve + " --listen 0 </dev/null >/dev/null 2>&1"), 2);
  EXPECT_EQ(run_shell(serve + " </dev/null >/dev/null 2>&1"), 1);
}

TEST(CliExitCodes, ResumeWithoutCheckpointIsUsageError) {
  const TempFile model("resume_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path) + " --resume"), 2);
}

TEST(CliExitCodes, MissingInputFileIsRuntimeError) {
  EXPECT_EQ(run_cli("detect --model /tmp/desmine_cli_no_such_model.bin "
                    "--test /tmp/desmine_cli_no_such_test.csv"),
            1);
}

TEST(CliExitCodes, GenerateSucceeds) {
  const TempFile csv("gen.csv");
  EXPECT_EQ(run_cli("generate --out " + csv.path + " --days 1 --minutes 40"),
            0);
}

TEST(CliExitCodes, CleanTrainingSucceeds) {
  const TempFile model("ok_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path)), 0);
  // The artifact is loadable afterwards.
  EXPECT_EQ(run_cli("inspect --model " + model.path), 0);
}

TEST(CliExitCodes, PermanentPairFailureExitsThreeButSavesArtifact) {
  const TempFile model("faulty_model.bin");
  // Pair 1 throws on every attempt -> permanently failed -> exit 3; the
  // artifact must still be written with the surviving edges.
  EXPECT_EQ(run_cli(tiny_train_args(model.path), "miner.pair:1=throw"), 3);
  EXPECT_EQ(run_cli("inspect --model " + model.path), 0);
}

TEST(CliExitCodes, TransientFaultIsRetriedToSuccess) {
  const TempFile model("retry_model.bin");
  EXPECT_EQ(run_cli(tiny_train_args(model.path), "miner.pair:1=throw*1"), 0);
}

namespace {

/// One trained artifact + clean test series shared by the detect tests.
struct DetectFixture {
  TempFile model{"detect_model.bin"};
  TempFile test{"detect_test.csv"};
  DetectFixture() {
    EXPECT_EQ(run_cli(tiny_train_args(model.path)), 0);
    EXPECT_EQ(run_cli("generate --out " + test.path +
                      " --days 1 --minutes 40 --seed 9 --components 1"),
              0);
  }
};

DetectFixture& detect_fixture() {
  static DetectFixture f;
  return f;
}

/// Detect invocation with a wide-open band so edges always qualify.
std::string detect_args(const std::string& test_csv) {
  return "detect --model " + detect_fixture().model.path + " --test " +
         test_csv + " --lo 0 --hi 100.5";
}

/// Copy `src` to `dst`, inserting a ragged "BAD" row after `after_rows`
/// data rows.
void corrupt_csv(const std::string& src, const std::string& dst,
                 std::size_t after_rows) {
  std::ifstream in(src);
  std::ofstream out(dst);
  std::string line;
  std::size_t n = 0;
  while (std::getline(in, line)) {
    out << line << "\n";
    if (++n == after_rows + 1) out << "BAD\n";  // +1 skips the header
  }
}

}  // namespace

TEST(CliExitCodes, StrictDetectOnCleanSeriesSucceeds) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path)), 0);
}

TEST(CliExitCodes, MalformedRowInStrictModeIsRuntimeError) {
  TempFile bad("detect_bad.csv");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  EXPECT_EQ(run_cli(detect_args(bad.path)), 1);
}

TEST(CliExitCodes, DegradedCleanRunSucceeds) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) + " --degraded"),
            0);
}

TEST(CliExitCodes, DegradedQuarantineRunExitsFour) {
  TempFile bad("detect_hole.csv");
  TempFile journal("detect_hole.quarantine.jsonl");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  // The quarantined row blanks a mid-stream tick for every sensor: windows
  // covering it lose all edges, fall below the quorum, and the run reports
  // "completed degraded".
  EXPECT_EQ(run_cli(detect_args(bad.path) +
                    " --degraded --on-bad-row quarantine --quarantine " +
                    journal.path),
            4);
  std::ifstream in(journal.path);
  EXPECT_TRUE(in.good());  // journal was written
}

TEST(CliExitCodes, SkipModeDetectSucceedsDespiteBadRow) {
  TempFile bad("detect_skip.csv");
  corrupt_csv(detect_fixture().test.path, bad.path, 20);
  // Skipping removes the tick for every sensor, so alignment (and strict
  // scoring) survives.
  EXPECT_EQ(run_cli(detect_args(bad.path) + " --on-bad-row skip"), 0);
}

TEST(CliExitCodes, BadOnBadRowValueIsUsageError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) +
                    " --on-bad-row bogus"),
            2);
}

TEST(CliExitCodes, ModelLoadFaultIsRuntimeError) {
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path),
                    "model.load:0=throw"),
            1);
}

TEST(CliExitCodes, DeeplyNestedConfigIsUsageError) {
  // A hostile config must end in a typed error, not a stack overflow.
  TempFile config("deep.json");
  {
    std::ofstream out(config.path);
    out << std::string(300000, '[') << std::string(300000, ']');
  }
  EXPECT_EQ(run_cli(detect_args(detect_fixture().test.path) + " --config " +
                    config.path),
            2);
}

TEST(ServeProtocol, MalformedLinesGetErrorsAndPingGetsOk) {
  TempFile out("serve_stdout.txt");
  const std::string cmd =
      "printf '%s\\n' '{\"op\":\"ping\"}garbage' '{\"op\":\"ping\"}' "
      "'{\"op\":tru}' '{\"op\":\"open\",\"degraded\":{\"x\":1}}' | " +
      std::string(DESMINE_SERVE_PATH) + " --model " +
      detect_fixture().model.path + " --lo 0 --hi 100.5 >" + out.path +
      " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream in(out.path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  const std::string malformed = R"({"ok":false,"error":"malformed JSON line"})";
  EXPECT_EQ(lines[0], malformed);
  EXPECT_EQ(lines[1], R"({"ok":true,"op":"ping"})");
  EXPECT_EQ(lines[2], malformed);
  EXPECT_EQ(lines[3], malformed);
}

TEST(ServeProtocol, OverLongLineGetsErrorAndConnectionStaysUp) {
  // A valid JSON object just above the 1 MiB line cap, then a ping.
  TempFile in("serve_long_stdin.txt");
  TempFile out("serve_long_stdout.txt");
  {
    std::ofstream f(in.path);
    f << R"({"op":"ping","pad":")" << std::string(std::size_t{1} << 20, 'x')
      << "\"}\n"
      << R"({"op":"ping"})" << "\n";
  }
  const std::string cmd = std::string(DESMINE_SERVE_PATH) + " --model " +
                          detect_fixture().model.path +
                          " --lo 0 --hi 100.5 <" + in.path + " >" + out.path +
                          " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  ASSERT_TRUE(status >= 0 && WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  std::ifstream got(out.path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(got, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], R"({"ok":false,"error":"line too long"})");
  EXPECT_EQ(lines[1], R"({"ok":true,"op":"ping"})");
}

namespace {

sockaddr_in loopback(int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  return addr;
}

/// A loopback port nothing listens on right now.
int free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr = loopback(0);
  socklen_t len = sizeof(addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), len);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// One loopback TCP exchange with desmine_serve --listen `port`: send a
/// ping, read the reply line, half-close and wait for the server to close
/// its end. Retries the connect while the server is still starting.
std::string ping_over_tcp(int port) {
  const sockaddr_in addr = loopback(port);
  int fd = -1;
  for (int i = 0; i < 500 && fd < 0; ++i) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) < 0) {
      ::close(fd);
      fd = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  std::string reply;
  if (fd < 0) return reply;
  const std::string ping = "{\"op\":\"ping\"}\n";
  char c = 0;
  if (::write(fd, ping.data(), ping.size()) == 14) {
    while (::read(fd, &c, 1) == 1 && c != '\n') reply += c;
  }
  ::shutdown(fd, SHUT_WR);
  while (::read(fd, &c, 1) == 1) {
  }
  ::close(fd);
  return reply;
}

long vm_size_kib(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmSize:", 0) == 0) return std::stol(line.substr(7));
  }
  return -1;
}

}  // namespace

TEST(ServeProtocol, FinishedConnectionThreadsAreReaped) {
  // A finished but unjoined connection thread keeps its stack mapped, so
  // 32 sequential connections must not grow VmSize by 8 stacks or more.
  // The server runs with one malloc arena: glibc reserves 64 MiB of
  // address space per extra arena, which would swamp the stack growth.
  pthread_attr_t attr;
  std::size_t stack_bytes = 0;
  pthread_attr_init(&attr);
  pthread_attr_getstacksize(&attr, &stack_bytes);
  pthread_attr_destroy(&attr);
  const TempFile pid_file("serve.pid");
  const int port = free_port();
  ASSERT_EQ(run_shell("MALLOC_ARENA_MAX=1 " + std::string(DESMINE_SERVE_PATH) +
                      " --model " + detect_fixture().model.path +
                      " --listen " + std::to_string(port) +
                      " >/dev/null 2>&1 & echo $! >" + pid_file.path),
            0);
  const pid_t pid = std::stoi(slurp(pid_file.path));
  const std::string pong = R"({"ok":true,"op":"ping"})";
  EXPECT_EQ(ping_over_tcp(port), pong);
  const long before = vm_size_kib(pid);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ping_over_tcp(port), pong) << i;
  const long after = vm_size_kib(pid);
  ::kill(pid, SIGTERM);
  ASSERT_GT(before, 0);
  EXPECT_LT(after - before, static_cast<long>(8 * stack_bytes / 1024))
      << "VmSize " << before << " -> " << after << " KiB";
}
