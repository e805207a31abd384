#include "insched/lp/tolerances.hpp"
#include "insched/mip/cut_pool.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

namespace insched::mip {
namespace {

/// FNV-1a over the rounded cut data. Coefficients are already normalized by
/// the separators (integers for covers/cliques, max-abs 1 for GMI), so a
/// fixed 1e-9 quantum distinguishes genuinely different cuts.
std::uint64_t cut_hash(const Cut& cut) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(cut.type));
  mix(static_cast<std::uint64_t>(std::llround(cut.rhs * 1e9)));
  for (const lp::RowEntry& e : cut.entries) {
    mix(static_cast<std::uint64_t>(e.column));
    mix(static_cast<std::uint64_t>(std::llround(e.coeff * 1e9)));
  }
  return h;
}

long& applied_tally(CutPoolCounters& c, CutFamily family) {
  switch (family) {
    case CutFamily::kCover:
    case CutFamily::kLiftedCover: return c.applied_cover;
    case CutFamily::kClique: return c.applied_clique;
    case CutFamily::kGomory: return c.applied_gomory;
    case CutFamily::kMir: return c.applied_mir;
  }
  return c.applied_cover;
}

double entry_norm(const Cut& cut) {
  double s = 0.0;
  for (const lp::RowEntry& e : cut.entries) s += e.coeff * e.coeff;
  return std::sqrt(std::max(s, lp::tol::kNormFloor));
}

/// Cosine between two sorted sparse entry lists.
double cosine(const Cut& a, double na, const Cut& b, double nb) {
  double dot = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.entries.size() && j < b.entries.size()) {
    if (a.entries[i].column < b.entries[j].column) {
      ++i;
    } else if (a.entries[i].column > b.entries[j].column) {
      ++j;
    } else {
      dot += a.entries[i].coeff * b.entries[j].coeff;
      ++i;
      ++j;
    }
  }
  return dot / (na * nb);
}

}  // namespace

bool CutPool::add(Cut cut) {
  if (cut.entries.empty()) return false;
  const std::uint64_t h = cut_hash(cut);
  MutexLock lock(mu_);
  ++counters_.separated;
  if (!seen_.insert(h).second) {
    ++counters_.duplicates;
    return false;
  }
  Entry e;
  e.norm = entry_norm(cut);
  e.cut = std::move(cut);
  e.id = next_id_++;
  entries_.push_back(std::move(e));
  return true;
}

int CutPool::add_all(std::vector<Cut> cuts) {
  int fresh = 0;
  for (Cut& c : cuts)
    if (add(std::move(c))) ++fresh;
  return fresh;
}

std::vector<Cut> CutPool::select(const std::vector<double>& x, int max_cuts,
                                 double min_violation, double max_parallel) {
  MutexLock lock(mu_);
  struct Scored {
    std::size_t index;
    double score;
    long id;
  };
  std::vector<Scored> scored;
  scored.reserve(entries_.size());
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    const Cut& c = entries_[k].cut;
    double lhs = 0.0;
    for (const lp::RowEntry& e : c.entries) {
      if (e.column < 0 || e.column >= static_cast<int>(x.size())) {
        lhs = std::numeric_limits<double>::quiet_NaN();
        break;
      }
      lhs += e.coeff * x[static_cast<std::size_t>(e.column)];
    }
    const double raw = c.type == lp::RowType::kLe ? lhs - c.rhs : c.rhs - lhs;
    const double score = raw / entries_[k].norm;
    if (std::isfinite(score) && score >= min_violation)
      scored.push_back(Scored{k, score, entries_[k].id});
  }
  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  });

  std::vector<Cut> out;
  std::vector<std::size_t> taken;
  for (const Scored& s : scored) {
    if (static_cast<int>(out.size()) >= max_cuts) break;
    const Entry& cand = entries_[s.index];
    bool parallel = false;
    for (const std::size_t t : taken) {
      const Entry& sel = entries_[t];
      if (std::fabs(cosine(cand.cut, cand.norm, sel.cut, sel.norm)) >= max_parallel) {
        parallel = true;
        break;
      }
    }
    if (parallel) continue;
    taken.push_back(s.index);
    out.push_back(cand.cut);
    ++applied_tally(counters_, cand.cut.family);
  }
  counters_.applied += static_cast<long>(out.size());

  // Remove the selected cuts, age the rest.
  std::vector<char> remove(entries_.size(), 0);
  for (const std::size_t t : taken) remove[t] = 1;
  std::vector<Entry> kept;
  kept.reserve(entries_.size() - taken.size());
  for (std::size_t k = 0; k < entries_.size(); ++k) {
    if (remove[k]) continue;
    Entry& e = entries_[k];
    if (++e.age > max_age_) {
      ++counters_.aged_out;
      continue;
    }
    kept.push_back(std::move(e));
  }
  entries_ = std::move(kept);
  return out;
}

int CutPool::size() const {
  MutexLock lock(mu_);
  return static_cast<int>(entries_.size());
}

CutPoolCounters CutPool::counters() const {
  MutexLock lock(mu_);
  return counters_;
}

}  // namespace insched::mip
