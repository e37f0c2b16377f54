#include "isolate.h"

#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace tordb_bench {
namespace {

// Line format, one fact per line; doubles as %a so they round-trip exactly:
//   m <sim|layer|host> <name> <unit> <value>
//   c <attempted> <committed> <app_aborted>
//   t <build_ms> <form_ms> <load_ms> <run_host_ns> <run_events> <run_sim>
//   v <violation text to end of line>
std::string encode(const Rep& rep) {
  std::string out;
  char buf[512];
  auto metrics = [&](const char* map, const MetricMap& m) {
    for (const auto& [name, metric] : m) {
      std::snprintf(buf, sizeof(buf), "m %s %s %s %a\n", map, name.c_str(), metric.unit.c_str(),
                    metric.value);
      out += buf;
    }
  };
  metrics("sim", rep.sim);
  metrics("layer", rep.layers);
  metrics("host", rep.host);
  std::snprintf(buf, sizeof(buf), "c %" PRIu64 " %" PRIu64 " %" PRIu64 "\n", rep.counts.attempted,
                rep.counts.committed, rep.counts.app_aborted);
  out += buf;
  std::snprintf(buf, sizeof(buf), "t %a %a %a %" PRId64 " %" PRIu64 " %" PRId64 "\n", rep.build_ms,
                rep.form_ms, rep.load_ms, rep.run_host_ns, rep.run_events, rep.run_sim);
  out += buf;
  for (std::string v : rep.violations) {
    for (char& ch : v) {
      if (ch == '\n') ch = ' ';
    }
    out += "v " + v + "\n";
  }
  return out;
}

Rep decode(const std::string& text) {
  Rep rep;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "m") {
      std::string map, name, unit, value;
      ls >> map >> name >> unit >> value;
      const Metric m{std::strtod(value.c_str(), nullptr), unit};
      (map == "sim" ? rep.sim : map == "layer" ? rep.layers : rep.host)[name] = m;
    } else if (tag == "c") {
      ls >> rep.counts.attempted >> rep.counts.committed >> rep.counts.app_aborted;
    } else if (tag == "t") {
      std::string b, f, l;
      ls >> b >> f >> l >> rep.run_host_ns >> rep.run_events >> rep.run_sim;
      rep.build_ms = std::strtod(b.c_str(), nullptr);
      rep.form_ms = std::strtod(f.c_str(), nullptr);
      rep.load_ms = std::strtod(l.c_str(), nullptr);
    } else if (tag == "v") {
      rep.violations.push_back(line.size() > 2 ? line.substr(2) : "");
    } else if (tag == "e") {
      throw std::runtime_error("repetition failed: " + (line.size() > 2 ? line.substr(2) : ""));
    }
  }
  return rep;
}

void write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

}  // namespace

Rep run_isolated(const std::function<Rep()>& body) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    // Die with the parent (a killed or timed-out run leaves no repetition
    // behind).
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(3);
    ::close(fds[0]);
    std::string out;
    int code = 0;
    try {
      out = encode(body());
    } catch (const std::exception& e) {
      out = std::string("e ") + e.what() + "\n";
      code = 2;
    }
    write_all(fds[1], out);
    ::close(fds[1]);
    std::fflush(nullptr);
    ::_exit(code);
  }
  ::close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  if (WIFSIGNALED(status)) {
    throw std::runtime_error("repetition killed by signal " + std::to_string(WTERMSIG(status)));
  }
  Rep rep = decode(text);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("repetition exited with status " + std::to_string(status));
  }
  rep.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return rep;
}

}  // namespace tordb_bench
