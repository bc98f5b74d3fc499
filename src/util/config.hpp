#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace jungle::util {

/// Minimal INI-style configuration, matching the paper's "small number of
/// simple configuration files" for IbisDeploy. Sections hold key=value
/// pairs; `#` and `;` start comments; keys are case-sensitive.
///
///   [resource das4-vu]
///   middleware = sge
///   frontend   = fs0.das4.vu.nl
///   cores      = 8
class Config {
 public:
  static Config parse(const std::string& text);
  /// Read and parse the file at `path`; throws ConfigError("cannot open
  /// <path>") when it cannot be read.
  static Config load(const std::string& path);

  /// All section names, in file order.
  const std::vector<std::string>& sections() const noexcept { return order_; }

  bool has_section(const std::string& section) const;
  bool has_key(const std::string& section, const std::string& key) const;

  /// Throws ConfigError if missing.
  std::string get(const std::string& section, const std::string& key) const;
  std::string get_or(const std::string& section, const std::string& key,
                     const std::string& fallback) const;
  long get_int(const std::string& section, const std::string& key) const;
  long get_int_or(const std::string& section, const std::string& key,
                  long fallback) const;
  double get_double(const std::string& section, const std::string& key) const;
  double get_double_or(const std::string& section, const std::string& key,
                       double fallback) const;
  bool get_bool_or(const std::string& section, const std::string& key,
                   bool fallback) const;

  void set(const std::string& section, const std::string& key,
           const std::string& value);

  /// Keys of a section in file order. Throws ConfigError if missing.
  std::vector<std::string> keys(const std::string& section) const;

 private:
  std::map<std::string, std::map<std::string, std::string>> values_;
  std::map<std::string, std::vector<std::string>> key_order_;
  std::vector<std::string> order_;
};

}  // namespace jungle::util
