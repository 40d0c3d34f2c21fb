#include "daemon.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "src/service/client.hpp"
#include "src/support/error.hpp"
#include "src/support/json.hpp"
#include "stats.hpp"
#include "trace.hpp"

extern char** environ;

namespace e2e {

namespace fs = std::filesystem;
using automap::Error;

namespace {

/// Live daemons and their sockets, readable from a signal handler.
struct LiveDaemon {
  std::atomic<pid_t> pid{0};
  char socket[108] = {};
};
LiveDaemon g_live[8];

void track(pid_t pid, const std::string& socket) {
  for (LiveDaemon& d : g_live) {
    if (d.pid.load() != 0) continue;
    std::snprintf(d.socket, sizeof d.socket, "%s", socket.c_str());
    pid_t empty = 0;
    if (d.pid.compare_exchange_strong(empty, pid)) return;
  }
}

void untrack(pid_t pid) {
  for (LiveDaemon& d : g_live) {
    pid_t expected = pid;
    if (d.pid.compare_exchange_strong(expected, 0)) return;
  }
}

extern "C" void kill_daemons_and_die(int sig) {
  for (LiveDaemon& d : g_live)
    if (const pid_t pid = d.pid.load(); pid > 0) {
      ::kill(pid, SIGKILL);
      ::unlink(d.socket);
    }
  std::signal(sig, SIG_DFL);
  std::raise(sig);
}

/// Waits up to `timeout_s` for the child to exit; true once reaped.
bool reap_within(pid_t pid, double timeout_s) {
  const double deadline = now_s() + timeout_s;
  for (;;) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid || r < 0) return true;
    if (now_s() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

/// A response parsed, or thrown as an Error when it is an error response.
automap::JsonValue checked(const std::string& response) {
  automap::JsonValue v = automap::parse_json(response);
  if (v.str_or("type", "") == "error")
    throw Error(v.str_or("code", "error") + ": " + v.str_or("message", ""));
  return v;
}

/// First sample of an unlabelled series in a Prometheus exposition.
double exposition_value(const std::string& text, const std::string& name) {
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line))
    if (line.rfind(name + " ", 0) == 0)
      return std::stod(line.substr(name.size() + 1));
  throw Error("daemon stats lack " + name);
}

/// Mean of a histogram from its exposed _sum and _count series.
double histogram_mean(const std::string& text, const std::string& base,
                      const std::string& labels = "") {
  const double count = exposition_value(text, base + "_count" + labels);
  return count > 0 ? exposition_value(text, base + "_sum" + labels) / count
                   : 0.0;
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

}  // namespace

void install_daemon_reaper() {
  for (const int sig : {SIGINT, SIGTERM, SIGHUP})
    std::signal(sig, kill_daemons_and_die);
}

Daemon::Daemon(const std::string& cli_path, const std::string& dir,
               int workers, int eval_threads)
    : dir_(dir), socket_(dir + "/d.sock") {
  Span span("service", "daemon_start");
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  const std::string log = dir_ + "/daemon.log";
  const std::string store = dir_ + "/store";
  const std::string w = std::to_string(workers);
  const std::string e = std::to_string(eval_threads);
  std::vector<std::string> args = {cli_path, "serve",   "--socket", socket_,
                                   "--store", store,     "--workers", w,
                                   "--eval-threads", e};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  const double t0 = now_s();
  const int rc =
      posix_spawn(&pid_, cli_path.c_str(), &actions, nullptr, argv.data(),
                  environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    pid_ = -1;
    fs::remove_all(dir_);
    throw Error("cannot start daemon " + cli_path);
  }
  track(pid_, socket_);

  const automap::ServiceClient client(socket_);
  for (;;) {
    try {
      (void)client.call("{\"op\":\"ping\"}");
      break;
    } catch (const automap::Unreachable&) {
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_ || now_s() - t0 > 20) {
      const std::string why = read_file(log);
      stop();
      throw Error("daemon did not answer ping: " + why);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  ready_ms_ = (now_s() - t0) * 1e3;
}

Daemon::~Daemon() { stop(); }

double Daemon::peak_rss_mb() const {
  return pid_ > 0 ? e2e::peak_rss_mb(std::to_string(pid_)) : 0.0;
}

void Daemon::stop() {
  if (pid_ > 0) {
    try {
      (void)automap::ServiceClient(socket_).call("{\"op\":\"shutdown\"}");
    } catch (const std::exception&) {
      // Unreachable or already gone: the signals below still stop it.
    }
    if (!reap_within(pid_, 10)) {
      ::kill(pid_, SIGTERM);
      if (!reap_within(pid_, 5)) {
        ::kill(pid_, SIGKILL);
        reap_within(pid_, 5);
      }
    }
    untrack(pid_);
    pid_ = -1;
  }
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

std::string call(const std::string& socket, const std::string& request,
                 const char* op, std::uint64_t request_id) {
  Span span("service", op, request_id);
  return automap::ServiceClient(socket).call(request);
}

double ping_rtt_us(const std::string& socket) {
  std::vector<double> rtt_us;
  for (int k = 0; k < 50; ++k) {
    const double t = now_s();
    (void)call(socket, "{\"op\":\"ping\"}", "ping", 0);
    rtt_us.push_back((now_s() - t) * 1e6);
  }
  return median(rtt_us);
}

std::string submit_json(const Request& r,
                        const automap::SearchOptions& options) {
  return "{\"op\":\"submit\",\"machine\":\"" +
         automap::json_escape(r.machine_text) + "\",\"graph\":\"" +
         automap::json_escape(r.graph_text) +
         "\",\"algorithm\":\"ccd\",\"options\":" +
         automap::search_options_to_json(options) +
         ",\"sim\":" + automap::sim_options_to_json(r.sim) +
         ",\"priority\":0,\"journal\":false,\"reuse_measurements\":false}";
}

Answer submit_and_wait(const std::string& socket, const std::string& submit,
                       std::uint64_t request_id) {
  const automap::JsonValue submitted =
      checked(call(socket, submit, "submit", request_id));
  const std::string job = std::to_string(
      static_cast<std::uint64_t>(submitted.num_or("job", 0)));
  Answer answer;
  answer.cached = submitted.bool_or("cached", false);
  std::string status = submitted.str_or("status", "");
  while (status != "done" && status != "failed" && status != "cancelled") {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    status = checked(call(socket, "{\"op\":\"status\",\"job\":" + job + "}",
                          "status", request_id))
                 .str_or("status", "");
  }
  answer.result_json = call(
      socket, "{\"op\":\"result\",\"job\":" + job + "}", "result", request_id);
  (void)checked(answer.result_json);
  return answer;
}

void read_service_stats(const std::string& socket, double cold_mean_ms,
                        Metrics& m) {
  const automap::JsonValue stats =
      checked(call(socket, "{\"op\":\"stats\"}", "stats", 0));
  const std::string text = stats.str_or("metrics", "");
  const double hits =
      exposition_value(text, "automap_service_result_cache_hits_total");
  const double misses =
      exposition_value(text, "automap_service_result_cache_misses_total");
  m["service.result_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0;
  m["service.store_bytes"] =
      exposition_value(text, "automap_service_store_bytes");
  m["service.sim_runs"] = exposition_value(text, "automap_sim_runs_total");
  m["service.handle_submit_mean_us"] =
      histogram_mean(text, "automap_service_handle_seconds",
                     "{op=\"submit\"}") * 1e6;
  m["service.queue_wait_mean_ms"] =
      histogram_mean(text, "automap_service_queue_wait_seconds") * 1e3;
  const double job_ms =
      histogram_mean(text, "automap_service_job_duration_seconds") * 1e3;
  m["service.job_run_mean_ms"] = job_ms;
  m["service.client_overhead_ms"] = cold_mean_ms - job_ms;
}

}  // namespace e2e
