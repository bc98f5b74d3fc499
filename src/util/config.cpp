#include "util/config.hpp"

#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace jungle::util {

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream stream(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Strip comments before trimming so trailing comments work.
    std::size_t hash = line.find_first_of("#;");
    if (hash != std::string::npos) line = line.substr(0, hash);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError("unterminated section header at line " +
                          std::to_string(line_number));
      }
      section = trim(line.substr(1, line.size() - 2));
      if (section.empty()) {
        throw ConfigError("empty section name at line " +
                          std::to_string(line_number));
      }
      if (!config.values_.count(section)) {
        config.values_[section] = {};
        config.key_order_[section] = {};
        config.order_.push_back(section);
      }
      continue;
    }
    std::size_t equals = line.find('=');
    if (equals == std::string::npos) {
      throw ConfigError("expected key=value at line " +
                        std::to_string(line_number) + ": '" + line + "'");
    }
    if (section.empty()) {
      throw ConfigError("key=value before any [section] at line " +
                        std::to_string(line_number));
    }
    std::string key = trim(line.substr(0, equals));
    std::string value = trim(line.substr(equals + 1));
    if (key.empty()) {
      throw ConfigError("empty key at line " + std::to_string(line_number));
    }
    if (!config.values_[section].count(key)) {
      config.key_order_[section].push_back(key);
    }
    config.values_[section][key] = value;
  }
  return config;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return parse(text.str());
}

bool Config::has_section(const std::string& section) const {
  return values_.count(section) != 0;
}

bool Config::has_key(const std::string& section, const std::string& key) const {
  auto it = values_.find(section);
  return it != values_.end() && it->second.count(key) != 0;
}

std::string Config::get(const std::string& section, const std::string& key) const {
  auto it = values_.find(section);
  if (it == values_.end()) {
    throw ConfigError("missing section [" + section + "]");
  }
  auto kv = it->second.find(key);
  if (kv == it->second.end()) {
    throw ConfigError("missing key '" + key + "' in section [" + section + "]");
  }
  return kv->second;
}

std::string Config::get_or(const std::string& section, const std::string& key,
                           const std::string& fallback) const {
  return has_key(section, key) ? get(section, key) : fallback;
}

long Config::get_int(const std::string& section, const std::string& key) const {
  const std::string value = get(section, key);
  try {
    std::size_t used = 0;
    long parsed = std::stol(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("key '" + key + "' in [" + section +
                      "] is not an integer: '" + value + "'");
  }
}

long Config::get_int_or(const std::string& section, const std::string& key,
                        long fallback) const {
  return has_key(section, key) ? get_int(section, key) : fallback;
}

double Config::get_double(const std::string& section,
                          const std::string& key) const {
  const std::string value = get(section, key);
  try {
    std::size_t used = 0;
    double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    throw ConfigError("key '" + key + "' in [" + section +
                      "] is not a number: '" + value + "'");
  }
}

double Config::get_double_or(const std::string& section, const std::string& key,
                             double fallback) const {
  return has_key(section, key) ? get_double(section, key) : fallback;
}

bool Config::get_bool_or(const std::string& section, const std::string& key,
                         bool fallback) const {
  if (!has_key(section, key)) return fallback;
  std::string value = get(section, key);
  if (value == "true" || value == "yes" || value == "1") return true;
  if (value == "false" || value == "no" || value == "0") return false;
  throw ConfigError("key '" + key + "' in [" + section +
                    "] is not a boolean: '" + value + "'");
}

void Config::set(const std::string& section, const std::string& key,
                 const std::string& value) {
  if (!values_.count(section)) {
    values_[section] = {};
    key_order_[section] = {};
    order_.push_back(section);
  }
  if (!values_[section].count(key)) key_order_[section].push_back(key);
  values_[section][key] = value;
}

std::vector<std::string> Config::keys(const std::string& section) const {
  auto it = key_order_.find(section);
  if (it == key_order_.end()) {
    throw ConfigError("missing section [" + section + "]");
  }
  return it->second;
}

}  // namespace jungle::util
