#include "insched/serve/cache.hpp"

#include <algorithm>
#include <utility>

namespace insched::serve {

SolutionCache::SolutionCache(std::size_t capacity) : capacity_(std::max<std::size_t>(1, capacity)) {}

std::optional<scheduler::ScheduleSolution> SolutionCache::lookup(std::uint64_t fingerprint,
                                                                 const std::string& key) {
  MutexLock lock(mu_);
  ++counters_.lookups;
  for (Entry& e : entries_) {
    if (e.fingerprint != fingerprint) continue;
    if (e.key != key) {
      ++counters_.collision_rejects;
      continue;
    }
    e.stamp = ++clock_;
    ++counters_.hits;
    return e.solution;
  }
  ++counters_.misses;
  return std::nullopt;
}

void SolutionCache::insert(std::uint64_t fingerprint, const std::string& key,
                           const scheduler::ScheduleSolution& solution) {
  MutexLock lock(mu_);
  for (Entry& e : entries_) {
    if (e.fingerprint == fingerprint && e.key == key) {
      e.solution = solution;
      e.stamp = ++clock_;
      ++counters_.updates;
      return;
    }
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(entries_.begin(), entries_.end(),
                                   [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(victim);
    ++counters_.evictions;
  }
  Entry e;
  e.fingerprint = fingerprint;
  e.key = key;
  e.solution = solution;
  e.stamp = ++clock_;
  entries_.push_back(std::move(e));
  ++counters_.inserts;
}

std::size_t SolutionCache::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

SolutionCache::Counters SolutionCache::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

void SolutionCache::clear() {
  MutexLock lock(mu_);
  entries_.clear();
  clock_ = 0;
}

// ---------------------------------------------------------------------------
// FamilyWarmPool

FamilyWarmPool::FamilyWarmPool(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const mip::MipSnapshot> FamilyWarmPool::get(std::uint64_t family) {
  MutexLock lock(mu_);
  for (Entry& e : entries_) {
    if (e.family != family) continue;
    e.stamp = ++clock_;
    return e.snapshot;
  }
  return nullptr;
}

void FamilyWarmPool::put(std::uint64_t family,
                         std::shared_ptr<const mip::MipSnapshot> snapshot) {
  MutexLock lock(mu_);
  for (Entry& e : entries_) {
    if (e.family != family) continue;
    e.snapshot = std::move(snapshot);
    e.stamp = ++clock_;
    return;
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(entries_.begin(), entries_.end(),
                                   [](const Entry& a, const Entry& b) { return a.stamp < b.stamp; });
    entries_.erase(victim);
  }
  entries_.push_back(Entry{family, std::move(snapshot), ++clock_});
}

std::size_t FamilyWarmPool::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

}  // namespace insched::serve
