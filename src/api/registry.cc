#include "api/registry.h"

#include <algorithm>
#include <cctype>

namespace kbiplex {

std::string NormalizeAlgorithmName(const std::string& name) {
  std::string out = name;
  std::transform(out.begin(), out.end(), out.begin(), [](unsigned char c) {
    return static_cast<char>(std::tolower(c));
  });
  return out;
}

AlgorithmRegistry& AlgorithmRegistry::Global() {
  static AlgorithmRegistry* registry = [] {
    auto* r = new AlgorithmRegistry();
    internal::RegisterBuiltinAlgorithms(r);
    return r;
  }();
  return *registry;
}

bool AlgorithmRegistry::Register(AlgorithmInfo info,
                                 AlgorithmFactory factory) {
  std::string key = NormalizeAlgorithmName(info.name);
  info.name = key;
  MutexLock lock(&mu_);
  return entries_.emplace(std::move(key), Entry{std::move(info),
                                                std::move(factory)})
      .second;
}

bool AlgorithmRegistry::Contains(const std::string& name) const {
  MutexLock lock(&mu_);
  return entries_.count(NormalizeAlgorithmName(name)) != 0;
}

std::optional<AlgorithmInfo> AlgorithmRegistry::Find(
    const std::string& name) const {
  MutexLock lock(&mu_);
  auto it = entries_.find(NormalizeAlgorithmName(name));
  if (it == entries_.end()) return std::nullopt;
  return it->second.info;
}

ConfiguredBackend AlgorithmRegistry::Create(
    const std::string& name, const BackendOptions& options) const {
  AlgorithmFactory factory;
  {
    MutexLock lock(&mu_);
    auto it = entries_.find(NormalizeAlgorithmName(name));
    if (it == entries_.end()) {
      return {nullptr, "unknown algorithm '" + name + "'"};
    }
    factory = it->second.factory;
  }
  return factory(options);
}

std::vector<std::string> AlgorithmRegistry::Names() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) names.push_back(name);
  return names;
}

std::vector<AlgorithmInfo> AlgorithmRegistry::List() const {
  MutexLock lock(&mu_);
  std::vector<AlgorithmInfo> infos;
  infos.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) infos.push_back(entry.info);
  return infos;
}

}  // namespace kbiplex
