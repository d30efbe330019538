#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace mtd::perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const std::size_t first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "" : line.substr(first);
      }
    }
  }
  return "unknown";
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

}  // namespace

double Tracer::busy_s(const std::string& name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.busy_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_s(int id) const {
  std::int64_t ns = span(id).busy_ns;
  for (const Span& s : spans_) {
    if (s.parent == id) ns -= s.busy_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

double Tracer::self_busy_s(const std::string& name) const {
  double s = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) s += self_s(static_cast<int>(i));
  }
  return s;
}

bool Tracer::well_formed(std::string& why) const {
  std::vector<std::int64_t> child_busy(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_ns < s.start_ns || s.busy_ns < 0 ||
        s.busy_ns > s.end_ns - s.start_ns) {
      why = "span " + s.name + " has busy time outside its interval";
      return false;
    }
    if (s.parent < 0) continue;
    if (static_cast<std::size_t>(s.parent) >= i) {
      why = "span " + s.name + " opened before its parent";
      return false;
    }
    const Span& p = spans_[static_cast<std::size_t>(s.parent)];
    if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
      why = "span " + s.name + " lies outside its parent " + p.name;
      return false;
    }
    child_busy[static_cast<std::size_t>(s.parent)] += s.busy_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].busy_ns < child_busy[i]) {
      why = "span " + spans_[i].name + " has negative self time";
      return false;
    }
  }
  return true;
}

std::string Tracer::to_json() const {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i
        << ",\"name\":" << json_string(s.name) << ",\"parent\":" << s.parent
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"busy_ns\":" << s.busy_ns << ",\"calls\":" << s.calls << "}";
  }
  out << "]\n";
  return out.str();
}

std::uint64_t fold(const std::vector<std::uint64_t>& per_bs) {
  std::uint64_t h = kDigestSeed;
  for (const std::uint64_t d : per_bs) h = mix(h, d);
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::cerr << "[perfbench] CHECK FAILED: " << what << "\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  return values[static_cast<std::size_t>(rank + 0.5)];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string identity_json() {
  char host[256] = {};
  if (gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  std::ostringstream out;
  out << "{\"hostname\":" << json_string(host) << ",\"nproc\":" << nproc()
      << ",\"cpu_model\":" << json_string(cpu_model())
      << ",\"build_type\":" << json_string(MTD_BENCH_BUILD_TYPE)
      << ",\"compile_flags\":" << json_string(MTD_BENCH_CXX_FLAGS)
      << ",\"compiler\":" << json_string(MTD_BENCH_COMPILER) << "}";
  return out.str();
}

std::size_t engine_workers() { return std::max<std::size_t>(1, nproc() - 1); }

ScratchDir::ScratchDir(const std::string& root, const std::string& workload,
                       int rep)
    : path_(root + "/" + workload + "-pid" + std::to_string(getpid()) +
            "-rep" + std::to_string(rep)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x01021994UL: return "tmpfs";
    case 0x794c7630UL: return "overlayfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x2fc12fc1UL: return "zfs";
    case 0xF2F52010UL: return "f2fs";
    case 0x01021997UL: return "9p";
    case 0x65735546UL: return "fuse";
    default: return "unknown";
  }
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

}  // namespace mtd::perfbench
