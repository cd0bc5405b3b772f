#include "util/args.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

namespace scapegoat {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      if (!command_) {
        command_ = token;
      } else {
        errors_.push_back("unexpected positional argument: " + token);
      }
      continue;
    }
    token = token.substr(2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      flags_[token.substr(0, eq)] = token.substr(eq + 1);
      continue;
    }
    // "--flag value" when the next token isn't a flag; bare "--flag" else.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[token] = argv[++i];
    } else {
      flags_[token] = "";
    }
  }
}

bool ArgParser::has(const std::string& flag) const {
  return flags_.contains(flag);
}

std::string ArgParser::get_string(const std::string& flag,
                                  const std::string& fallback) {
  consumed_[flag] = true;
  const auto it = flags_.find(flag);
  return it == flags_.end() ? fallback : it->second;
}

long ArgParser::get_int(const std::string& flag, long fallback) {
  consumed_[flag] = true;
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + flag + " expects an integer, got '" +
                      it->second + "'");
    return fallback;
  }
  if (errno == ERANGE) {
    errors_.push_back("--" + flag + " value out of range: '" + it->second +
                      "'");
    return fallback;
  }
  return v;
}

double ArgParser::get_double(const std::string& flag, double fallback) {
  consumed_[flag] = true;
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + flag + " expects a number, got '" + it->second +
                      "'");
    return fallback;
  }
  if (errno == ERANGE || !std::isfinite(v)) {
    errors_.push_back("--" + flag + " value out of range: '" + it->second +
                      "'");
    return fallback;
  }
  return v;
}

std::vector<long> ArgParser::get_int_list(const std::string& flag) {
  consumed_[flag] = true;
  std::vector<long> out;
  const auto it = flags_.find(flag);
  if (it == flags_.end()) return out;
  std::istringstream stream(it->second);
  std::string piece;
  while (std::getline(stream, piece, ',')) {
    char* end = nullptr;
    errno = 0;
    const long v = std::strtol(piece.c_str(), &end, 10);
    if (end == piece.c_str() || *end != '\0' || errno == ERANGE) {
      errors_.push_back("--" + flag + " expects integers, got '" + piece +
                        "'");
      return out;
    }
    out.push_back(v);
  }
  return out;
}

bool ArgParser::check_count(const std::string& flag, long v, std::size_t max,
                            const std::string& noun, const std::string& raw) {
  if (v <= 0) {
    // An explicit 0 (or negative) count is a mistake, not "auto": the
    // caller typed a value and nothing can run on zero workers or chunks.
    errors_.push_back("--" + flag + " expects a positive " + noun +
                      ", got '" + raw + "'");
    return false;
  }
  if (static_cast<unsigned long>(v) > max) {
    errors_.push_back("--" + flag + " expects a " + noun + " of at most " +
                      std::to_string(max) + ", got '" + raw + "'");
    return false;
  }
  return true;
}

std::optional<std::size_t> ArgParser::get_count(const std::string& flag,
                                                std::size_t max,
                                                const std::string& noun) {
  const std::size_t errors_before = errors_.size();
  const long v = get_int(flag, 0);
  if (!has(flag)) return std::nullopt;
  if (errors_.size() > errors_before) return std::nullopt;  // get_int said so
  if (!check_count(flag, v, max, noun, get_string(flag))) return std::nullopt;
  return static_cast<std::size_t>(v);
}

std::size_t ArgParser::get_threads(const std::string& flag) {
  return get_count(flag, kMaxThreads, "thread count").value_or(0);
}

std::vector<std::size_t> ArgParser::get_thread_list(const std::string& flag) {
  const std::size_t errors_before = errors_.size();
  const std::vector<long> values = get_int_list(flag);
  if (errors_.size() > errors_before) return {};
  std::vector<std::size_t> out;
  for (const long v : values) {
    if (!check_count(flag, v, kMaxThreads, "thread count", std::to_string(v)))
      return {};
    out.push_back(static_cast<std::size_t>(v));
  }
  return out;
}

void ArgParser::apply_execution(ExecutionPolicy& exec) {
  ThreadPool::set_global_threads(get_threads());
  if (const auto grain = get_count(
          "grain", std::numeric_limits<std::size_t>::max(), "chunk size"))
    exec.grain = *grain;
  exec.seed = static_cast<std::uint64_t>(
      get_int("seed", static_cast<long>(exec.seed)));
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : flags_)
    if (!consumed_.contains(name)) out.push_back(name);
  return out;
}

}  // namespace scapegoat
