#include "probe.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <memory>

namespace tordb_bench {

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::size_t Spans::open(const char* name, std::uint64_t id) {
  host_.push_back(HostSpan{name, id, host_ns()});
  stack_.push_back(host_.size() - 1);
  return host_.size() - 1;
}

void Spans::close(std::size_t idx) {
  HostSpan& s = host_[idx];
  s.dur = host_ns() - s.start;
  stack_.pop_back();
  if (!stack_.empty()) host_[stack_.back()].child += s.dur;
}

std::map<std::string, Spans::Totals> Spans::host_totals() const {
  std::map<std::string, Totals> out;
  for (const HostSpan& s : host_) {
    if (s.dur < 0) continue;
    Totals& t = out[s.name];
    ++t.count;
    t.total_ns += s.dur;
    t.self_ns += s.dur - s.child;
  }
  return out;
}

bool Spans::write_chrome_trace(const std::string& path, const std::string& label) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"%s\"},"
               "\"traceEvents\":[\n",
               json_escape(label).c_str());
  std::fprintf(out,
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
               "\"args\":{\"name\":\"host clock\"}},\n"
               "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
               "\"args\":{\"name\":\"simulated clock\"}}");
  for (const HostSpan& s : host_) {
    if (s.dur < 0) continue;
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu,\"self_us\":%.3f}}",
                 s.name, static_cast<double>(s.start - origin_) / 1e3,
                 static_cast<double>(s.dur) / 1e3, static_cast<unsigned long long>(s.id),
                 static_cast<double>(s.dur - s.child) / 1e3);
  }
  for (const SimSpan& s : sim_) {
    std::fprintf(out,
                 ",\n{\"ph\":\"X\",\"pid\":2,\"tid\":%llu,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"id\":%llu}}",
                 static_cast<unsigned long long>(s.id >> 32), s.name,
                 static_cast<double>(s.start) / 1e3, static_cast<double>(s.end - s.start) / 1e3,
                 static_cast<unsigned long long>(s.id));
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::ferror(out) == 0;
  return std::fclose(f.release()) == 0 && ok;
}

}  // namespace tordb_bench
