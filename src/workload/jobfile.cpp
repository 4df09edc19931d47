#include "workload/jobfile.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>

namespace dk::workload {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

Result<std::uint64_t> parse_u64(std::string_view token) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), v);
  if (ec != std::errc() || p != token.data() + token.size())
    return Status::Error(Errc::invalid_argument,
                         "bad number: " + std::string(token));
  return v;
}

/// A count in [lo, hi], for fields narrower than the 64-bit parse.
Result<unsigned> parse_count(std::string_view key, std::string_view token,
                             unsigned lo, unsigned hi) {
  auto n = parse_u64(token);
  if (!n.ok()) return n.status();
  if (*n < lo || *n > hi)
    return Status::Error(Errc::invalid_argument,
                         std::string(key) + " must be in [" +
                             std::to_string(lo) + ", " + std::to_string(hi) +
                             "]: " + std::string(token));
  return static_cast<unsigned>(*n);
}

Status apply(ParsedJob& job, std::string_view key, std::string_view value) {
  const std::string k = lower(key);
  const std::string v = lower(value);
  if (k == "rw" || k == "readwrite") {
    if (v == "read") job.spec.rw = RwMode::seq_read;
    else if (v == "write") job.spec.rw = RwMode::seq_write;
    else if (v == "randread") job.spec.rw = RwMode::rand_read;
    else if (v == "randwrite") job.spec.rw = RwMode::rand_write;
    else if (v == "randrw") job.spec.rw = RwMode::rand_rw;
    else return Status::Error(Errc::invalid_argument, "bad rw: " + v);
  } else if (k == "bs" || k == "blocksize") {
    auto size = parse_size(v);
    if (!size.ok()) return size.status();
    if (*size == 0)
      return Status::Error(Errc::invalid_argument, "bs must be at least 1");
    job.spec.bs = *size;
  } else if (k == "iodepth") {
    auto n = parse_count(k, v, 1, std::numeric_limits<unsigned>::max());
    if (!n.ok()) return n.status();
    job.spec.iodepth = *n;
  } else if (k == "numjobs") {
    auto n = parse_count(k, v, 1, std::numeric_limits<unsigned>::max());
    if (!n.ok()) return n.status();
    job.spec.numjobs = *n;
  } else if (k == "runtime") {
    auto n = parse_u64(v);
    if (!n.ok()) return n.status();
    job.spec.runtime = sec(static_cast<double>(*n));
  } else if (k == "ramp_time") {
    auto n = parse_u64(v);
    if (!n.ok()) return n.status();
    job.spec.ramp = sec(static_cast<double>(*n));
  } else if (k == "verify") {
    job.spec.verify = v != "0";
  } else if (k == "prefill") {
    job.spec.prefill = v != "0";
  } else if (k == "rwmixread") {
    auto n = parse_count(k, v, 0, 100);
    if (!n.ok()) return n.status();
    job.spec.rwmix_read = *n;
  } else if (k == "seed" || k == "randseed") {
    auto n = parse_u64(v);
    if (!n.ok()) return n.status();
    job.spec.seed = *n;
  } else if (k == "variant") {
    if (v == "d2-sw") job.variant = core::VariantKind::sw_ceph_d2;
    else if (v == "d3-sw") job.variant = core::VariantKind::sw_delibak;
    else if (v == "d1") job.variant = core::VariantKind::deliba1;
    else if (v == "d2") job.variant = core::VariantKind::deliba2;
    else if (v == "d3" || v == "delibak") job.variant = core::VariantKind::delibak;
    else return Status::Error(Errc::invalid_argument, "bad variant: " + v);
  } else if (k == "pool") {
    if (v == "replicated") job.pool = core::PoolMode::replicated;
    else if (v == "ec" || v == "erasure") job.pool = core::PoolMode::erasure;
    else return Status::Error(Errc::invalid_argument, "bad pool: " + v);
  } else if (k == "direct" || k == "ioengine" || k == "group_reporting" ||
             k == "time_based" || k == "filename" || k == "size") {
    // Accepted-and-ignored fio keys (the simulation fixes these).
  } else {
    return Status::Error(Errc::invalid_argument,
                         "unknown key: " + std::string(key));
  }
  return Status::Ok();
}

}  // namespace

Result<std::uint64_t> parse_size(std::string_view token) {
  token = trim(token);
  if (token.empty())
    return Status::Error(Errc::invalid_argument, "empty size");
  std::uint64_t mult = 1;
  char suffix = static_cast<char>(
      std::tolower(static_cast<unsigned char>(token.back())));
  if (suffix == 'k') mult = 1024;
  else if (suffix == 'm') mult = 1024 * 1024;
  else if (suffix == 'g') mult = 1024ull * 1024 * 1024;
  auto n = parse_u64(mult == 1 ? token : token.substr(0, token.size() - 1));
  if (!n.ok()) return n.status();
  if (*n > std::numeric_limits<std::uint64_t>::max() / mult)
    return Status::Error(Errc::invalid_argument,
                         "size overflows 64 bits: " + std::string(token));
  return *n * mult;
}

Result<std::vector<ParsedJob>> parse_jobfile(std::string_view text) {
  std::vector<ParsedJob> jobs;
  ParsedJob global;
  ParsedJob* current = nullptr;
  bool in_global = false;

  std::size_t pos = 0;
  int line_no = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;

    line = trim(line);
    if (line.empty() || line.front() == '#' || line.front() == ';') continue;

    if (line.front() == '[') {
      if (line.back() != ']')
        return Status::Error(Errc::invalid_argument,
                             "unterminated section at line " +
                                 std::to_string(line_no));
      const std::string name(trim(line.substr(1, line.size() - 2)));
      if (lower(name) == "global") {
        in_global = true;
        current = nullptr;
      } else {
        in_global = false;
        ParsedJob job = global;  // inherit global defaults
        job.name = name;
        jobs.push_back(std::move(job));
        current = &jobs.back();
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      // Bare flags (e.g. "group_reporting") are tolerated.
      continue;
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    ParsedJob& target = in_global ? global : (current ? *current : global);
    Status s = apply(target, key, value);
    if (!s.ok())
      return Status::Error(s.code(), s.message() + " (line " +
                                         std::to_string(line_no) + ")");
  }
  if (jobs.empty())
    return Status::Error(Errc::invalid_argument, "no job sections found");
  return jobs;
}

}  // namespace dk::workload
