#include "insched/lp/simplex.hpp"

#include <algorithm>
#include <cmath>

#include "insched/lp/factor.hpp"
#include "insched/lp/tolerances.hpp"
#include "insched/support/assert.hpp"
#include "insched/support/fault_inject.hpp"
#include "insched/support/log.hpp"
#include "insched/support/simd.hpp"

namespace insched::lp {

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOptimal: return "optimal";
    case SolveStatus::kInfeasible: return "infeasible";
    case SolveStatus::kUnbounded: return "unbounded";
    case SolveStatus::kIterationLimit: return "iteration-limit";
    case SolveStatus::kNumericalFailure: return "numerical-failure";
  }
  return "?";
}

namespace {

constexpr int kStallLimit = 64;  ///< degenerate pivots before Bland's rule
constexpr int kMaxRecoveries = 8;  ///< recovery-ladder invocations per solve
/// Pivots between deadline checks: one slice cannot blow a budget, and the
/// clock read is amortized to noise.
constexpr int kDeadlineCheckInterval = 256;

enum class VarState { kBasic, kAtLower, kAtUpper, kFreeZero };

// Internal working problem: minimize c.z subject to A.z = b, l <= z <= u,
// where z = [structural | slacks | artificials]. One Engine is reusable
// across solves of the same base model with different column bounds: the
// constraint matrix is built once, per-solve state is reset in prepare().
//
// All basis linear algebra goes through the sparse LU + eta-file kernel in
// factor.hpp: pivots append product-form etas, FTRAN/BTRAN exploit
// right-hand-side hyper-sparsity, and duals are maintained incrementally
// (one hyper-sparse BTRAN of the changed row per pivot) instead of the
// former dense O(m^2) recomputation every iteration.
class Engine {
 public:
  Engine(const Model& model, const SimplexOptions& options)
      : model_(model), opt_(options), m_(model.num_rows()), n_(model.num_columns()) {
    build_arrays();
  }

  [[nodiscard]] SimplexResult solve_cold(const std::vector<BoundOverride>& overrides);
  [[nodiscard]] SimplexResult solve_dual(const std::vector<BoundOverride>& overrides,
                                         const Basis& start, const Factorization* hint);

 private:
  struct Entry {
    int row;
    double coeff;
  };

  void build_arrays();
  void prepare(const std::vector<BoundOverride>& overrides);
  [[nodiscard]] bool start_cold();
  [[nodiscard]] bool add_artificials();
  [[nodiscard]] bool load_basis(const Basis& start, const Factorization* hint);
  void compute_basic_values();
  [[nodiscard]] bool factorize_basis(double tau = 0.1, SingularInfo* singular = nullptr);
  [[nodiscard]] bool refactorize();
  [[nodiscard]] bool recover_factorization();
  [[nodiscard]] bool primal_feasible() const;
  void snap_nonbasic_and_recompute();
  void perturb_bounds();
  void unperturb_bounds();
  void compute_duals(const std::vector<double>& cost, std::vector<double>* y);
  [[nodiscard]] double reduced_cost(int j, const std::vector<double>& cost,
                                    const std::vector<double>& y) const;
  void ftran_column(int j);  // w_ := Binv * A_j
  SolveStatus iterate(const std::vector<double>& cost, double* objective_out, int* iters);
  SolveStatus iterate_dual(const std::vector<double>& cost, int* iters);
  [[nodiscard]] double phase1_infeasibility() const;
  [[nodiscard]] bool residuals_ok() const;
  void extract(SimplexResult* result);
  void export_basis(SimplexResult* result) const;

  const Model& model_;
  SimplexOptions opt_;
  int m_;               // rows
  int n_;               // structural columns
  int total_ = 0;       // structural + slacks + artificials
  bool maximize_ = false;

  std::vector<std::vector<Entry>> cols_;  // sparse columns of A
  // Flattened CSC copy of the structural + slack columns (never the
  // artificials, which stay in cols_). One contiguous row/value stream keeps
  // the pricing dot products on cache lines and lets the reduced-cost
  // reductions vectorize (INSCHED_SIMD) instead of chasing one heap
  // allocation per column.
  std::vector<int> aptr_, arow_;
  std::vector<double> aval_;
  std::vector<double> base_lower_, base_upper_;  // pristine bounds (n + m)
  std::vector<double> lower_, upper_;
  std::vector<double> cost2_;             // phase-2 cost (minimize convention)
  std::vector<double> cost1_;             // phase-1 cost (artificial infeasibility)
  std::vector<double> b_;

  std::vector<int> basis_;                // basis_[i] = variable basic in row i
  std::vector<VarState> state_;
  std::vector<double> value_;             // current value of every variable
  LuFactors lu_;                          // sparse LU + eta file of the basis
  SparseVec w_;                           // FTRAN image of the entering column
  SparseVec rho_;                         // BTRAN image of the leaving row
  SparseVec alpha_;                       // dual pricing row (alpha per column)
  // Dual ratio-test candidate scratch (two-pass test): surviving columns,
  // their pricing-row entries / directions, and batched reduced costs.
  std::vector<int> cand_j_, cand_dir_;
  std::vector<double> cand_alpha_, cand_d_;
  SparseVec vwork_;                       // generic solve workspace
  std::vector<double> devex_;             // devex reference weights
  std::vector<double> ywork_;             // dual vector, reused across solves
  mutable std::vector<double> actwork_;   // residual-check scratch
  int price_cursor_ = 0;                  // rotating partial-pricing start
  int pivots_since_refactor_ = 0;
  int total_iterations_ = 0;
  int phase1_iterations_ = 0;
  int first_artificial_ = 0;

  /// True when the wall-clock deadline has passed. Sampled every
  /// kDeadlineCheckInterval pivots from the iteration loops so a single
  /// long simplex call honors MipOptions::time_limit_s (ROADMAP 2b); the
  /// no-deadline default short-circuits before any clock read.
  [[nodiscard]] bool deadline_expired() const {
    if (opt_.deadline == std::chrono::steady_clock::time_point::max()) return false;
    if (total_iterations_ % kDeadlineCheckInterval != 0) return false;
    return std::chrono::steady_clock::now() >= opt_.deadline;
  }

  // Recovery-ladder state (docs/ROBUSTNESS.md), reset per solve. The ladder
  // shares one budget (`recoveries_` vs kMaxRecoveries) across all its
  // rungs so a genuinely broken basis cannot loop forever.
  RecoveryStats recovery_;
  int recoveries_ = 0;
  bool perturbed_ = false;      // perturbed bounds are currently in effect
  bool perturb_used_ = false;   // at most one perturbation per solve
  std::vector<double> saved_lower_, saved_upper_;
};

void Engine::build_arrays() {
  maximize_ = model_.sense() == Sense::kMaximize;
  total_ = n_ + m_;
  cols_.assign(static_cast<std::size_t>(total_), {});
  base_lower_.resize(static_cast<std::size_t>(total_));
  base_upper_.resize(static_cast<std::size_t>(total_));
  cost2_.assign(static_cast<std::size_t>(total_), 0.0);
  b_.resize(static_cast<std::size_t>(m_));

  for (int j = 0; j < n_; ++j) {
    const Column& c = model_.column(j);
    base_lower_[static_cast<std::size_t>(j)] = c.lower;
    base_upper_[static_cast<std::size_t>(j)] = c.upper;
    cost2_[static_cast<std::size_t>(j)] = maximize_ ? -c.objective : c.objective;
  }
  for (int i = 0; i < m_; ++i) {
    const Row& r = model_.row(i);
    b_[static_cast<std::size_t>(i)] = r.rhs;
    for (const RowEntry& e : r.entries)
      cols_[static_cast<std::size_t>(e.column)].push_back(Entry{i, e.coeff});
    const int slack = n_ + i;
    cols_[static_cast<std::size_t>(slack)].push_back(Entry{i, 1.0});
    switch (r.type) {
      case RowType::kLe:
        base_lower_[static_cast<std::size_t>(slack)] = 0.0;
        base_upper_[static_cast<std::size_t>(slack)] = kInf;
        break;
      case RowType::kGe:
        base_lower_[static_cast<std::size_t>(slack)] = -kInf;
        base_upper_[static_cast<std::size_t>(slack)] = 0.0;
        break;
      case RowType::kEq:
        base_lower_[static_cast<std::size_t>(slack)] = 0.0;
        base_upper_[static_cast<std::size_t>(slack)] = 0.0;
        break;
    }
  }

  aptr_.assign(static_cast<std::size_t>(total_) + 1, 0);
  std::size_t nnz = 0;
  for (int j = 0; j < total_; ++j) nnz += cols_[static_cast<std::size_t>(j)].size();
  arow_.reserve(nnz);
  aval_.reserve(nnz);
  for (int j = 0; j < total_; ++j) {
    for (const Entry& e : cols_[static_cast<std::size_t>(j)]) {
      arow_.push_back(e.row);
      aval_.push_back(e.coeff);
    }
    aptr_[static_cast<std::size_t>(j) + 1] = static_cast<int>(arow_.size());
  }
}

void Engine::prepare(const std::vector<BoundOverride>& overrides) {
  // Drop artificial columns left over from a previous cold solve on this
  // workspace and restore the pristine bounds.
  total_ = n_ + m_;
  first_artificial_ = total_;
  cols_.resize(static_cast<std::size_t>(total_));
  cost2_.resize(static_cast<std::size_t>(total_));
  lower_ = base_lower_;
  upper_ = base_upper_;
  for (const BoundOverride& o : overrides) {
    INSCHED_ASSERT(o.column >= 0 && o.column < n_);
    lower_[static_cast<std::size_t>(o.column)] = o.lower;
    upper_[static_cast<std::size_t>(o.column)] = o.upper;
  }
  state_.assign(static_cast<std::size_t>(total_), VarState::kAtLower);
  value_.assign(static_cast<std::size_t>(total_), 0.0);
  lu_.reset_stats();
  price_cursor_ = 0;
  pivots_since_refactor_ = 0;
  total_iterations_ = 0;
  phase1_iterations_ = 0;
  recovery_ = RecoveryStats{};
  recoveries_ = 0;
  perturbed_ = false;
  perturb_used_ = false;
}

bool Engine::start_cold() {
  // Start every variable nonbasic at the finite bound nearest zero.
  for (int j = 0; j < total_; ++j) {
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    if (std::isfinite(lo) && std::isfinite(hi)) {
      if (std::fabs(lo) <= std::fabs(hi)) {
        state_[static_cast<std::size_t>(j)] = VarState::kAtLower;
        value_[static_cast<std::size_t>(j)] = lo;
      } else {
        state_[static_cast<std::size_t>(j)] = VarState::kAtUpper;
        value_[static_cast<std::size_t>(j)] = hi;
      }
    } else if (std::isfinite(lo)) {
      state_[static_cast<std::size_t>(j)] = VarState::kAtLower;
      value_[static_cast<std::size_t>(j)] = lo;
    } else if (std::isfinite(hi)) {
      state_[static_cast<std::size_t>(j)] = VarState::kAtUpper;
      value_[static_cast<std::size_t>(j)] = hi;
    } else {
      state_[static_cast<std::size_t>(j)] = VarState::kFreeZero;
      value_[static_cast<std::size_t>(j)] = 0.0;
    }
  }
  return add_artificials();
}

bool Engine::add_artificials() {
  // Residual of each row with every variable at its starting value.
  std::vector<double> residual = b_;
  for (int j = 0; j < total_; ++j) {
    const double v = value_[static_cast<std::size_t>(j)];
    if (v == 0.0) continue;
    for (const Entry& e : cols_[static_cast<std::size_t>(j)])
      residual[static_cast<std::size_t>(e.row)] -= e.coeff * v;
  }

  basis_.assign(static_cast<std::size_t>(m_), -1);
  first_artificial_ = total_;
  cost1_.assign(static_cast<std::size_t>(total_), 0.0);

  for (int i = 0; i < m_; ++i) {
    const int slack = n_ + i;
    const double r = residual[static_cast<std::size_t>(i)];
    const double slo = lower_[static_cast<std::size_t>(slack)];
    const double shi = upper_[static_cast<std::size_t>(slack)];
    // The slack column is a unit vector, so making it basic with value
    // (current value + r) is possible; do so when that value is in bounds.
    const double candidate = value_[static_cast<std::size_t>(slack)] + r;
    if (candidate >= slo - tol::kFeasTol && candidate <= shi + tol::kFeasTol) {
      basis_[static_cast<std::size_t>(i)] = slack;
      state_[static_cast<std::size_t>(slack)] = VarState::kBasic;
      value_[static_cast<std::size_t>(slack)] = candidate;
      continue;
    }
    // Otherwise add a signed artificial carrying the residual.
    const int art = total_++;
    cols_.push_back({Entry{i, 1.0}});
    if (r >= 0.0) {
      lower_.push_back(0.0);
      upper_.push_back(kInf);
      cost1_.push_back(1.0);
    } else {
      lower_.push_back(-kInf);
      upper_.push_back(0.0);
      cost1_.push_back(-1.0);
    }
    cost2_.push_back(0.0);
    state_.push_back(VarState::kBasic);
    value_.push_back(r);
    basis_[static_cast<std::size_t>(i)] = art;
  }
  cost1_.resize(static_cast<std::size_t>(total_), 0.0);

  // The starting basis is all unit columns (slacks and artificials), so the
  // factorization is a trivial singleton cascade that only fails under
  // injected faults or corrupted memory — both worth surviving.
  if (factorize_basis()) return true;
  return recover_factorization();
}

bool Engine::load_basis(const Basis& start, const Factorization* hint) {
  if (start.rows() != m_ || start.variables() != total_) return false;
  if (!start.consistent()) return false;

  basis_ = start.basic;
  for (int j = 0; j < total_; ++j) {
    const double lo = lower_[static_cast<std::size_t>(j)];
    const double hi = upper_[static_cast<std::size_t>(j)];
    VarState st;
    switch (start.status[static_cast<std::size_t>(j)]) {
      case BasisStatus::kBasic: st = VarState::kBasic; break;
      case BasisStatus::kAtLower: st = VarState::kAtLower; break;
      case BasisStatus::kAtUpper: st = VarState::kAtUpper; break;
      default: st = VarState::kFreeZero; break;
    }
    // Snap nonbasic variables onto the (possibly moved) bounds; this is the
    // warm-start step that keeps the basis dual feasible while primal
    // feasibility is restored by the dual pivots.
    if (st == VarState::kAtLower && !std::isfinite(lo)) st = std::isfinite(hi) ? VarState::kAtUpper : VarState::kFreeZero;
    if (st == VarState::kAtUpper && !std::isfinite(hi)) st = std::isfinite(lo) ? VarState::kAtLower : VarState::kFreeZero;
    if (st == VarState::kFreeZero) {
      if (lo > 0.0) st = VarState::kAtLower;
      else if (hi < 0.0) st = VarState::kAtUpper;
    }
    state_[static_cast<std::size_t>(j)] = st;
    switch (st) {
      case VarState::kBasic: break;  // filled by compute_basic_values
      case VarState::kAtLower: value_[static_cast<std::size_t>(j)] = lo; break;
      case VarState::kAtUpper: value_[static_cast<std::size_t>(j)] = hi; break;
      case VarState::kFreeZero: value_[static_cast<std::size_t>(j)] = 0.0; break;
    }
  }

  if (hint != nullptr && hint->rows() == m_ && hint->core != nullptr) {
    lu_.load(*hint);
    // The hint's eta chain counts against the refactorization budget; a
    // long-chained hint is cheaper to refactorize than to keep applying.
    pivots_since_refactor_ = hint->eta_count();
    if (pivots_since_refactor_ >= opt_.refactor_interval) return refactorize();
    compute_basic_values();
    return true;
  }
  return refactorize();
}

void Engine::compute_basic_values() {
  // xB = Binv (b - N xN), one FTRAN on the (usually mostly dense) rhs.
  vwork_.resize(m_);
  for (int i = 0; i < m_; ++i)
    if (b_[static_cast<std::size_t>(i)] != 0.0) vwork_.add(i, b_[static_cast<std::size_t>(i)]);
  for (int j = 0; j < total_; ++j) {
    if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
    const double v = value_[static_cast<std::size_t>(j)];
    if (v == 0.0) continue;
    for (const Entry& e : cols_[static_cast<std::size_t>(j)]) vwork_.add(e.row, -e.coeff * v);
  }
  lu_.ftran(&vwork_);
  for (int i = 0; i < m_; ++i)
    value_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] =
        vwork_.values[static_cast<std::size_t>(i)];
  vwork_.clear();
}

bool Engine::factorize_basis(double tau, SingularInfo* singular) {
  std::vector<std::vector<LuEntry>> bcols(static_cast<std::size_t>(m_));
  for (int i = 0; i < m_; ++i) {
    const auto& col = cols_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    auto& out = bcols[static_cast<std::size_t>(i)];
    out.reserve(col.size());
    for (const Entry& e : col) out.push_back({e.row, e.coeff});
  }
  if (!lu_.factorize(bcols, tol::kPivotTol, tau, singular)) return false;  // singular
  pivots_since_refactor_ = 0;
  return true;
}

// Recovery ladder for a singular (re)factorization: first retry with
// progressively tighter Markowitz thresholds (tau -> 1 forbids the unstable
// small-pivot choices that let the elimination paint itself into a corner),
// then substitute slacks for the basis positions the last attempt left
// unpivoted. A slack column is a unit vector, so the repaired basis is
// structurally nonsingular; the evicted variables park on their nearest
// bound and the caller's pivots restore feasibility and optimality.
bool Engine::recover_factorization() {
  if (!opt_.enable_recovery || recoveries_ >= kMaxRecoveries) return false;
  ++recoveries_;
  SingularInfo info;
  for (const double tau : {0.5, 0.9}) {
    ++recovery_.refactor_tightened;
    if (factorize_basis(tau, &info)) return true;
  }
  const std::size_t k = std::min(info.rows.size(), info.positions.size());
  long substituted = 0;
  for (std::size_t t = 0; t < k; ++t) {
    const auto pos = static_cast<std::size_t>(info.positions[t]);
    const auto slack = static_cast<std::size_t>(n_ + info.rows[t]);
    if (state_[slack] == VarState::kBasic) continue;  // basic in another row
    const auto old = static_cast<std::size_t>(basis_[pos]);
    const double lo = lower_[old];
    const double hi = upper_[old];
    if (std::isfinite(lo) &&
        (!std::isfinite(hi) || std::fabs(value_[old] - lo) <= std::fabs(hi - value_[old]))) {
      state_[old] = VarState::kAtLower;
      value_[old] = lo;
    } else if (std::isfinite(hi)) {
      state_[old] = VarState::kAtUpper;
      value_[old] = hi;
    } else {
      state_[old] = VarState::kFreeZero;
      value_[old] = 0.0;
    }
    basis_[pos] = static_cast<int>(slack);
    state_[slack] = VarState::kBasic;
    ++substituted;
  }
  if (substituted == 0) return false;
  recovery_.singular_repairs += substituted;
  return factorize_basis(0.9);
}

bool Engine::refactorize() {
  if (!factorize_basis() && !recover_factorization()) return false;
  compute_basic_values();
  if (!residuals_ok()) {
    // Fresh factors can only disagree with A x = b when a solve was
    // corrupted (drifted eta chain, injected FTRAN fault): rebuild once
    // with the tightest threshold; a second drift is terminal.
    ++recovery_.residual_failures;
    if (!opt_.enable_recovery || recoveries_ >= kMaxRecoveries) return false;
    ++recoveries_;
    if (!factorize_basis(0.9) && !recover_factorization()) return false;
    compute_basic_values();
    if (!residuals_ok()) return false;
  }
  return true;
}

bool Engine::primal_feasible() const {
  for (int i = 0; i < m_; ++i) {
    const auto bj = static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)]);
    const double v = value_[bj];
    if (v < lower_[bj] - tol::kFeasTol || v > upper_[bj] + tol::kFeasTol)
      return false;
  }
  return true;
}

void Engine::snap_nonbasic_and_recompute() {
  for (int j = 0; j < total_; ++j) {
    const auto s = static_cast<std::size_t>(j);
    if (state_[s] == VarState::kAtLower) value_[s] = lower_[s];
    else if (state_[s] == VarState::kAtUpper) value_[s] = upper_[s];
  }
  compute_basic_values();
}

// Anti-cycling bound perturbation: relax every finite, non-fixed structural
// and slack bound by a tiny deterministic per-column amount. The perturbed
// problem is a relaxation whose degenerate vertices split apart, so a pivot
// sequence that Bland's rule could not unstick resumes making (tiny) real
// progress; unperturb_bounds() restores the exact problem and the clean-up
// pivots finish at its true optimum. The magnitudes stay well below
// tol::kFeasTol so the restored point is at worst tolerably infeasible,
// which the exit-path feasibility check and dual clean-up absorb.
void Engine::perturb_bounds() {
  saved_lower_ = lower_;
  saved_upper_ = upper_;
  for (int j = 0; j < first_artificial_; ++j) {
    const auto s = static_cast<std::size_t>(j);
    double& lo = lower_[s];
    double& hi = upper_[s];
    if (lo == hi) continue;  // fixed columns must stay fixed
    const unsigned h = static_cast<unsigned>(j) * 2654435761u;  // Fibonacci hash
    const double eps = tol::kPerturbScale * (1.0 + static_cast<double>((h >> 8) & 1023) / 1024.0);
    if (std::isfinite(lo)) lo -= eps * (1.0 + std::fabs(lo));
    if (std::isfinite(hi)) hi += eps * (1.0 + std::fabs(hi));
  }
  snap_nonbasic_and_recompute();
  perturbed_ = true;
  perturb_used_ = true;
  ++recovery_.perturbations;
}

void Engine::unperturb_bounds() {
  lower_ = std::move(saved_lower_);
  upper_ = std::move(saved_upper_);
  snap_nonbasic_and_recompute();
  perturbed_ = false;
  ++recovery_.cleanups;
}

void Engine::compute_duals(const std::vector<double>& cost, std::vector<double>* y) {
  // y = cB^T Binv, one BTRAN; the cost vector is sparse in phase 1 and on
  // the scheduling models (most columns are free of objective weight).
  vwork_.resize(m_);
  for (int i = 0; i < m_; ++i) {
    const double cb = cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    if (cb != 0.0) vwork_.add(i, cb);
  }
  lu_.btran(&vwork_);
  y->assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i) (*y)[static_cast<std::size_t>(i)] = vwork_.values[static_cast<std::size_t>(i)];
  vwork_.clear();
}

double Engine::reduced_cost(int j, const std::vector<double>& cost,
                            const std::vector<double>& y) const {
  double d = cost[static_cast<std::size_t>(j)];
  if (j < n_ + m_) {
    // Flattened stream; the gather-multiply reduction vectorizes.
    const int b = aptr_[static_cast<std::size_t>(j)];
    const int e = aptr_[static_cast<std::size_t>(j) + 1];
    const int* rows = arow_.data();
    const double* vals = aval_.data();
    INSCHED_SIMD_REDUCTION(- : d)
    for (int t = b; t < e; ++t)
      d -= y[static_cast<std::size_t>(rows[t])] * vals[t];
    return d;
  }
  for (const Entry& e : cols_[static_cast<std::size_t>(j)])
    d -= y[static_cast<std::size_t>(e.row)] * e.coeff;
  return d;
}

void Engine::ftran_column(int j) {
  w_.resize(m_);
  for (const Entry& e : cols_[static_cast<std::size_t>(j)]) w_.add(e.row, e.coeff);
  lu_.ftran(&w_);
}

double Engine::phase1_infeasibility() const {
  double total = 0.0;
  for (int j = first_artificial_; j < total_; ++j)
    total += cost1_[static_cast<std::size_t>(j)] * value_[static_cast<std::size_t>(j)];
  return total;
}

bool Engine::residuals_ok() const {
  actwork_.assign(static_cast<std::size_t>(m_), 0.0);
  std::vector<double>& activity = actwork_;
  for (int j = 0; j < total_; ++j) {
    const double v = value_[static_cast<std::size_t>(j)];
    if (v == 0.0) continue;
    for (const Entry& e : cols_[static_cast<std::size_t>(j)])
      activity[static_cast<std::size_t>(e.row)] += e.coeff * v;
  }
  for (int i = 0; i < m_; ++i) {
    const double rhs = b_[static_cast<std::size_t>(i)];
    if (std::fabs(activity[static_cast<std::size_t>(i)] - rhs) >
        tol::kResidualTol * (1.0 + std::fabs(rhs)))
      return false;
  }
  return true;
}

SolveStatus Engine::iterate(const std::vector<double>& cost, double* objective_out, int* iters) {
  int stall = 0;
  bool bland = false;
  int repair_rounds = 0;  // dual feasibility-repair passes at the exit

  compute_duals(cost, &ywork_);
  std::vector<double>& y = ywork_;
  bool y_fresh = true;  // exact duals; incremental updates mark them stale
  devex_.assign(static_cast<std::size_t>(total_), 1.0);

  // Candidate test shared by every pricing pass: would column j improve the
  // objective if moved in some direction? Returns the direction (0 = no).
  auto price = [&](int j, double* d_out) -> int {
    const VarState st = state_[static_cast<std::size_t>(j)];
    if (st == VarState::kBasic) return 0;
    if (lower_[static_cast<std::size_t>(j)] == upper_[static_cast<std::size_t>(j)])
      return 0;  // fixed variable can never improve
    const double d = reduced_cost(j, cost, y);
    if ((st == VarState::kAtLower || st == VarState::kFreeZero) && d < -tol::kOptTol) {
      *d_out = d;
      return +1;
    }
    if ((st == VarState::kAtUpper || st == VarState::kFreeZero) && d > tol::kOptTol) {
      *d_out = d;
      return -1;
    }
    return 0;
  };

  while (true) {
    if (total_iterations_ >= opt_.max_iterations) return SolveStatus::kIterationLimit;
    if (deadline_expired()) return SolveStatus::kIterationLimit;

    // Pricing: partial pricing over rotating column blocks with a
    // devex-weighted score d^2 / gamma_j. Scanning stops at the end of the
    // first block holding a candidate; the cursor then advances past the
    // chosen column so later blocks get their turn.
    int entering = -1;
    int entering_dir = 0;  // +1 increase, -1 decrease
    double entering_d = 0.0;
    if (bland) {
      // Bland's rule: smallest improving index over all columns, priced
      // against exact duals — the anti-cycling guarantee needs both.
      if (!y_fresh) {
        compute_duals(cost, &y);
        y_fresh = true;
      }
      for (int j = 0; j < total_; ++j) {
        double d = 0.0;
        const int dir = price(j, &d);
        if (dir != 0) {
          entering = j;
          entering_dir = dir;
          entering_d = d;
          break;
        }
      }
    } else {
      const int block = opt_.price_block_size > 0 ? opt_.price_block_size : total_;
      double best_score = 0.0;
      for (int k = 0; k < total_; ++k) {
        int j = price_cursor_ + k;
        if (j >= total_) j -= total_;
        double d = 0.0;
        const int dir = price(j, &d);
        if (dir != 0) {
          const double score = d * d / devex_[static_cast<std::size_t>(j)];
          if (score > best_score) {
            best_score = score;
            entering = j;
            entering_dir = dir;
            entering_d = d;
          }
        }
        if (entering >= 0 && (k + 1) % block == 0) break;
      }
      if (entering < 0 && !y_fresh) {
        // The incrementally updated duals found nothing; confirm against
        // exact duals with a full scan before declaring optimality.
        compute_duals(cost, &y);
        y_fresh = true;
        best_score = 0.0;
        for (int j = 0; j < total_; ++j) {
          double d = 0.0;
          const int dir = price(j, &d);
          if (dir == 0) continue;
          const double score = d * d / devex_[static_cast<std::size_t>(j)];
          if (score > best_score) {
            best_score = score;
            entering = j;
            entering_dir = dir;
            entering_d = d;
          }
        }
      }
    }
    if (entering < 0) {
      if (perturbed_) {
        // Clean-up phase: restore the exact bounds and keep pivoting; the
        // perturbed optimum is one short pivot sequence from the true one.
        unperturb_bounds();
        compute_duals(cost, &y);
        y_fresh = true;
        stall = 0;
        bland = false;
        continue;
      }
      if (!primal_feasible()) {
        // A singular-basis repair (or perturbation round-off) moved basic
        // values off their bounds, and pricing alone never re-checks them.
        // Restore primal feasibility with dual pivots, then resume pricing.
        if (!opt_.enable_recovery || repair_rounds >= 2)
          return SolveStatus::kNumericalFailure;
        ++repair_rounds;
        const SolveStatus ds = iterate_dual(cost, iters);
        if (ds == SolveStatus::kInfeasible) {
          // The dual loop never prices artificial columns, so its
          // infeasibility proof only stands once no artificial can move
          // (phase 2, where they are pinned at zero).
          for (int j = first_artificial_; j < total_; ++j)
            if (lower_[static_cast<std::size_t>(j)] < upper_[static_cast<std::size_t>(j)])
              return SolveStatus::kNumericalFailure;
          return ds;
        }
        if (ds != SolveStatus::kOptimal) return ds;
        compute_duals(cost, &y);
        y_fresh = true;
        stall = 0;
        bland = false;
        continue;
      }
      if (objective_out) {
        double obj = 0.0;
        for (int j = 0; j < total_; ++j)
          obj += cost[static_cast<std::size_t>(j)] * value_[static_cast<std::size_t>(j)];
        *objective_out = obj;
      }
      return SolveStatus::kOptimal;
    }
    price_cursor_ = entering + 1 >= total_ ? 0 : entering + 1;

    ++total_iterations_;
    if (iters) ++(*iters);

    const double sigma = static_cast<double>(entering_dir);
    ftran_column(entering);  // w_.nz arrives sorted and duplicate-free

    // Ratio test: how far can the entering variable move? Only rows where
    // the entering column's FTRAN image is nonzero can limit the step.
    const double elo = lower_[static_cast<std::size_t>(entering)];
    const double ehi = upper_[static_cast<std::size_t>(entering)];
    double t_max = kInf;
    if (std::isfinite(elo) && std::isfinite(ehi)) t_max = ehi - elo;  // bound flip distance
    double t_best = t_max;
    int leaving_row = -1;
    bool leaving_at_upper = false;

    for (const int i : w_.nz) {
      const double wi = w_.values[static_cast<std::size_t>(i)];
      if (std::fabs(wi) <= tol::kPivotTol) continue;
      const int bj = basis_[static_cast<std::size_t>(i)];
      const double bv = value_[static_cast<std::size_t>(bj)];
      const double delta = sigma * wi;  // basic var changes by -delta * t
      double limit = kInf;
      bool hits_upper = false;
      if (delta > 0.0) {
        const double lo = lower_[static_cast<std::size_t>(bj)];
        if (std::isfinite(lo)) limit = (bv - lo) / delta;
      } else {
        const double hi = upper_[static_cast<std::size_t>(bj)];
        if (std::isfinite(hi)) {
          limit = (hi - bv) / (-delta);
          hits_upper = true;
        }
      }
      if (limit < -tol::kFeasTol) limit = 0.0;  // slight infeasibility: block
      if (limit < t_best - tol::kTieTol ||
          (leaving_row >= 0 && limit < t_best + tol::kTieTol &&
           std::fabs(wi) > std::fabs(w_.values[static_cast<std::size_t>(leaving_row)]))) {
        if (bland && leaving_row >= 0 && limit >= t_best - tol::kTieTol &&
            basis_[static_cast<std::size_t>(i)] > basis_[static_cast<std::size_t>(leaving_row)])
          continue;  // Bland: prefer smallest variable index on ties
        t_best = std::max(limit, 0.0);
        leaving_row = i;
        leaving_at_upper = hits_upper;
      }
    }

    if (!std::isfinite(t_best)) return SolveStatus::kUnbounded;

    if (leaving_row < 0) {
      // Bound flip: entering variable jumps to its opposite bound. Basis
      // and duals are unchanged.
      for (const int i : w_.nz) {
        const int bj = basis_[static_cast<std::size_t>(i)];
        value_[static_cast<std::size_t>(bj)] -=
            sigma * w_.values[static_cast<std::size_t>(i)] * t_best;
      }
      if (entering_dir > 0) {
        state_[static_cast<std::size_t>(entering)] = VarState::kAtUpper;
        value_[static_cast<std::size_t>(entering)] = ehi;
      } else {
        state_[static_cast<std::size_t>(entering)] = VarState::kAtLower;
        value_[static_cast<std::size_t>(entering)] = elo;
      }
    } else {
      // Pivot: update values and basis, then absorb the basis change as a
      // product-form eta instead of an O(m^2) elimination of a dense
      // inverse.
      const double wr = w_.values[static_cast<std::size_t>(leaving_row)];
      const int leaving = basis_[static_cast<std::size_t>(leaving_row)];

      // Incremental dual update: y' = y + (d_q / w_r) rho_r with rho_r the
      // leaving row of the (old) basis inverse — one hyper-sparse BTRAN.
      rho_.resize(m_);
      rho_.add(leaving_row, 1.0);
      lu_.btran(&rho_);
      const double theta = entering_d / wr;
      for (const int r : rho_.nz)
        y[static_cast<std::size_t>(r)] += theta * rho_.values[static_cast<std::size_t>(r)];
      y_fresh = false;

      for (const int i : w_.nz) {
        if (i == leaving_row) continue;
        const int bj = basis_[static_cast<std::size_t>(i)];
        value_[static_cast<std::size_t>(bj)] -=
            sigma * w_.values[static_cast<std::size_t>(i)] * t_best;
      }
      value_[static_cast<std::size_t>(entering)] += sigma * t_best;
      state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
      if (leaving_at_upper) {
        state_[static_cast<std::size_t>(leaving)] = VarState::kAtUpper;
        value_[static_cast<std::size_t>(leaving)] = upper_[static_cast<std::size_t>(leaving)];
      } else {
        state_[static_cast<std::size_t>(leaving)] = VarState::kAtLower;
        value_[static_cast<std::size_t>(leaving)] = lower_[static_cast<std::size_t>(leaving)];
      }
      basis_[static_cast<std::size_t>(leaving_row)] = entering;

      // Cheap devex maintenance: the leaving variable inherits the entering
      // weight projected through the pivot.
      devex_[static_cast<std::size_t>(leaving)] =
          std::max(devex_[static_cast<std::size_t>(entering)] / (wr * wr), 1.0);

      lu_.append_eta(leaving_row, w_);
      if (++pivots_since_refactor_ >= opt_.refactor_interval) {
        if (!refactorize()) return SolveStatus::kNumericalFailure;
        compute_duals(cost, &y);
        y_fresh = true;
      }
    }

    // Anti-cycling: degenerate steps (no movement) switch to Bland-style
    // smallest-index selection until real progress resumes; when even
    // Bland's rule keeps stalling, perturb the bounds once per solve.
    if (t_best > tol::kTieTol) {
      stall = 0;
      bland = false;
    } else if (++stall > kStallLimit) {
      bland = true;
      if (opt_.enable_recovery && !perturb_used_ && stall > 4 * kStallLimit &&
          recoveries_ < kMaxRecoveries) {
        ++recoveries_;
        perturb_bounds();
        compute_duals(cost, &y);
        y_fresh = true;
        stall = 0;
        bland = false;
      }
    }
  }
}

// Bounded-variable dual simplex: the basis is dual feasible (all reduced
// costs have the right sign for their nonbasic state); pivots restore primal
// feasibility row by row. Each iteration selects the most-violated basic
// variable as leaving, obtains the leaving row of the basis inverse with one
// hyper-sparse BTRAN, builds the pricing row alpha = br A row-wise (only
// rows where br is nonzero contribute), then picks the entering variable by
// the dual ratio test (smallest |d_j / alpha_j| keeps every reduced cost on
// the right side of zero). Ties break to the larger |alpha| for stability,
// then the smaller column index for cross-run determinism.
SolveStatus Engine::iterate_dual(const std::vector<double>& cost, int* iters) {
  int stall = 0;
  bool bland = false;

  // Fault hook: one event per dual-simplex solve; an armed event simulates
  // losing the pivot right away (the shape of a real tiny-|w_r| breakdown).
  if (fault::enabled() && fault::should_fail(fault::Hook::kDualPivot))
    return SolveStatus::kNumericalFailure;

  compute_duals(cost, &ywork_);
  std::vector<double>& y = ywork_;
  bool y_fresh = true;

  // Degenerate cycling is possible despite Bland's rule (tolerance bands
  // defeat the exact-arithmetic termination proof), and a warm solve that
  // cycles is worthless: a healthy dual re-solve of a one-bound perturbation
  // takes a few pivots, so cap the pivot count at a generous multiple of the
  // basis size and report an iteration limit instead of spinning to
  // max_iterations. Callers fall back to the cold primal path, whose
  // phase-1 restart breaks the cycle.
  const int budget = std::max(2000, 50 * m_ + total_ / 4);
  int pivots = 0;

  while (true) {
    if (total_iterations_ >= opt_.max_iterations || pivots >= budget)
      return SolveStatus::kIterationLimit;
    if (deadline_expired()) return SolveStatus::kIterationLimit;
    if (bland && !y_fresh) {
      // Bland's anti-cycling selection needs exact reduced costs; the
      // incrementally updated duals drift over degenerate pivots.
      compute_duals(cost, &y);
      y_fresh = true;
    }

    // Leaving row: largest bound violation among basic variables (Bland
    // fallback: smallest basic variable index with any violation).
    int leaving_row = -1;
    bool below = false;
    double worst = tol::kFeasTol;
    for (int i = 0; i < m_; ++i) {
      const int bj = basis_[static_cast<std::size_t>(i)];
      const double v = value_[static_cast<std::size_t>(bj)];
      const double viol_lo = lower_[static_cast<std::size_t>(bj)] - v;
      const double viol_hi = v - upper_[static_cast<std::size_t>(bj)];
      if (bland) {
        if (viol_lo > tol::kFeasTol || viol_hi > tol::kFeasTol) {
          if (leaving_row < 0 ||
              bj < basis_[static_cast<std::size_t>(leaving_row)]) {
            leaving_row = i;
            below = viol_lo > viol_hi;
          }
        }
        continue;
      }
      if (viol_lo > worst) {
        worst = viol_lo;
        leaving_row = i;
        below = true;
      }
      if (viol_hi > worst) {
        worst = viol_hi;
        leaving_row = i;
        below = false;
      }
    }
    if (leaving_row < 0) {
      if (perturbed_) {
        // Clean-up phase: restore the exact bounds; any re-violated rows
        // are repaired by further dual pivots against the true problem.
        unperturb_bounds();
        compute_duals(cost, &y);
        y_fresh = true;
        stall = 0;
        bland = false;
        continue;
      }
      return SolveStatus::kOptimal;  // primal feasible
    }

    ++total_iterations_;
    ++pivots;
    if (iters) ++(*iters);

    const int leaving = basis_[static_cast<std::size_t>(leaving_row)];
    const double target = below ? lower_[static_cast<std::size_t>(leaving)]
                                : upper_[static_cast<std::size_t>(leaving)];
    // br = e_r^T Binv via BTRAN; typically hyper-sparse on staircase models.
    rho_.resize(m_);
    rho_.add(leaving_row, 1.0);
    lu_.btran(&rho_);
    const std::vector<double>& br = rho_.values;  // indexed by original row

    // Pricing row alpha_j = br . A_j, built row-wise from the nonzero rows
    // of br: structural entries come from the model's row lists, the slack
    // of row r contributes br[r] in column n + r. (The dual path never sees
    // artificial columns.)
    alpha_.resize(total_);
    for (const int r : rho_.nz) {
      const double brr = br[static_cast<std::size_t>(r)];
      if (brr == 0.0) continue;
      for (const RowEntry& e : model_.row(r).entries)
        alpha_.add(e.column, brr * e.coeff);
      alpha_.add(n_ + r, brr);
    }
    alpha_.compact();  // ascending-index tie-breaks, each column once

    // Two-pass dual ratio test over the columns the pricing row touches.
    // Pass 1 filters the candidates (scalar, state-dependent branches),
    // pass 1b batches their reduced costs (SIMD dot products over the
    // flattened column stream), pass 2 is the scalar selection with the
    // original deterministic tie-breaks. Candidates stay in ascending-j
    // order throughout (alpha_.nz is compacted), so the winner is
    // bit-identical to the former single-pass loop.
    //
    // tiny_gain: maximum repair of the violated row achievable by columns
    // whose alpha is below tol::kPivotTol. They are unusable as pivots, but a
    // sub-tolerance alpha times a wide variable range (big-M columns) can
    // still move the row, so an eventual "no entering column" verdict
    // proves infeasibility only if the violation exceeds this slack.
    double tiny_gain = 0.0;
    cand_j_.clear();
    cand_dir_.clear();
    cand_alpha_.clear();
    for (const int j : alpha_.nz) {
      if (state_[static_cast<std::size_t>(j)] == VarState::kBasic) continue;
      if (lower_[static_cast<std::size_t>(j)] == upper_[static_cast<std::size_t>(j)])
        continue;  // fixed variable cannot move
      const double alpha = alpha_.values[static_cast<std::size_t>(j)];
      if (std::fabs(alpha) <= tol::kPivotTol) {
        if (alpha != 0.0) {
          // Repair of x_B(r) per unit increase of x_j is -alpha (below
          // violation) or +alpha (above); moving down gives the negative.
          const double range = upper_[static_cast<std::size_t>(j)] -
                               lower_[static_cast<std::size_t>(j)];
          const double up_help = below ? -alpha : alpha;
          const VarState st = state_[static_cast<std::size_t>(j)];
          if (st != VarState::kAtUpper && up_help > 0.0) tiny_gain += up_help * range;
          else if (st != VarState::kAtLower && up_help < 0.0) tiny_gain += -up_help * range;
        }
        continue;
      }
      // x_B(r) changes by -alpha per unit increase of x_j; pick the
      // direction that moves the leaving variable toward its violated bound.
      const int dir = (below ? alpha < 0.0 : alpha > 0.0) ? +1 : -1;
      const VarState st = state_[static_cast<std::size_t>(j)];
      if (dir > 0 && st == VarState::kAtUpper) continue;
      if (dir < 0 && st == VarState::kAtLower) continue;
      cand_j_.push_back(j);
      cand_dir_.push_back(dir);
      cand_alpha_.push_back(alpha);
    }

    const std::size_t ncand = cand_j_.size();
    cand_d_.resize(ncand);
    for (std::size_t k = 0; k < ncand; ++k)
      cand_d_[k] = reduced_cost(cand_j_[k], cost, y);

    int entering = -1;
    int entering_dir = 0;
    double entering_d = 0.0;
    double best_ratio = kInf;
    double best_alpha = 0.0;
    for (std::size_t k = 0; k < ncand; ++k) {
      const int j = cand_j_[k];
      const double alpha = cand_alpha_[k];
      const double d = cand_d_[k];
      const double ratio = std::fabs(d) / std::fabs(alpha);
      const bool better =
          entering < 0 || ratio < best_ratio - tol::kTieTol ||
          (ratio < best_ratio + tol::kTieTol &&
           (bland ? j < entering
                  : (std::fabs(alpha) > std::fabs(best_alpha) + tol::kTieTol ||
                     (std::fabs(alpha) >= std::fabs(best_alpha) - tol::kTieTol && j < entering))));
      if (better) {
        entering = j;
        entering_dir = cand_dir_[k];
        entering_d = d;
        best_ratio = ratio;
        best_alpha = alpha;
      }
    }
    if (entering < 0) {
      // No usable column can repair the violated row: the current nonbasic
      // point extremizes the row's value over the bound box (blocked
      // columns only move it the wrong way), so the row stays violated for
      // every choice of the nonbasics — a valid infeasibility proof
      // provided the sub-tolerance columns' combined slack cannot close the
      // gap. Otherwise the proof is in doubt and the caller must fall back
      // to the cold path.
      const double viol = below
                              ? lower_[static_cast<std::size_t>(leaving)] -
                                    value_[static_cast<std::size_t>(leaving)]
                              : value_[static_cast<std::size_t>(leaving)] -
                                    upper_[static_cast<std::size_t>(leaving)];
      if (viol <= tiny_gain + tol::kFeasTol) return SolveStatus::kNumericalFailure;
      // The alphas came from `br`, which is only as good as the LU + eta
      // solve that produced it (a stale hint or an ill-conditioned eta
      // chain can corrupt it). The proof is only as good as br being a
      // true row of the basis inverse: check br * B = e_r before
      // certifying.
      for (int i = 0; i < m_; ++i) {
        const int bj = basis_[static_cast<std::size_t>(i)];
        double dot = 0.0;
        for (const Entry& e : cols_[static_cast<std::size_t>(bj)])
          dot += br[static_cast<std::size_t>(e.row)] * e.coeff;
        if (std::fabs(dot - (i == leaving_row ? 1.0 : 0.0)) > tol::kResidualTol)
          return SolveStatus::kNumericalFailure;
      }
      alpha_.clear();
      rho_.clear();
      return SolveStatus::kInfeasible;
    }

    const double sigma = static_cast<double>(entering_dir);
    ftran_column(entering);
    const double wr = w_.values[static_cast<std::size_t>(leaving_row)];
    if (std::fabs(wr) <= tol::kPivotTol) return SolveStatus::kNumericalFailure;

    // Incremental dual update, using the already-computed leaving row:
    // y' = y + (d_q / alpha_q) br. Exact for the new basis.
    const double theta = entering_d / wr;
    for (const int r : rho_.nz)
      y[static_cast<std::size_t>(r)] += theta * br[static_cast<std::size_t>(r)];
    y_fresh = false;

    // Primal step: drive the leaving variable exactly onto its violated
    // bound. t >= 0 by the entering-direction choice.
    double t = (value_[static_cast<std::size_t>(leaving)] - target) / (sigma * wr);
    if (t < 0.0) t = 0.0;  // degenerate guard against round-off

    for (const int i : w_.nz) {
      if (i == leaving_row) continue;
      const int bj = basis_[static_cast<std::size_t>(i)];
      value_[static_cast<std::size_t>(bj)] -=
          sigma * w_.values[static_cast<std::size_t>(i)] * t;
    }
    value_[static_cast<std::size_t>(entering)] += sigma * t;
    state_[static_cast<std::size_t>(entering)] = VarState::kBasic;
    state_[static_cast<std::size_t>(leaving)] = below ? VarState::kAtLower : VarState::kAtUpper;
    value_[static_cast<std::size_t>(leaving)] = target;
    basis_[static_cast<std::size_t>(leaving_row)] = entering;

    lu_.append_eta(leaving_row, w_);
    if (++pivots_since_refactor_ >= opt_.refactor_interval) {
      if (!refactorize()) return SolveStatus::kNumericalFailure;
      compute_duals(cost, &y);
      y_fresh = true;
    }

    // Anti-cycling: degenerate pivots (zero step) switch to Bland-style
    // smallest-index selection until real progress resumes; when even
    // Bland's rule keeps stalling, perturb the bounds once per solve.
    if (t > tol::kTieTol) {
      stall = 0;
      bland = false;
    } else if (++stall > kStallLimit) {
      bland = true;
      if (opt_.enable_recovery && !perturb_used_ && stall > 4 * kStallLimit &&
          recoveries_ < kMaxRecoveries) {
        ++recoveries_;
        perturb_bounds();
        compute_duals(cost, &y);
        y_fresh = true;
        stall = 0;
        bland = false;
      }
    }
  }
}

void Engine::extract(SimplexResult* result) {
  result->x.assign(static_cast<std::size_t>(n_), 0.0);
  for (int j = 0; j < n_; ++j)
    result->x[static_cast<std::size_t>(j)] = value_[static_cast<std::size_t>(j)];
  result->objective = model_.objective_value(result->x);

  if (opt_.want_duals) {
    compute_duals(cost2_, &ywork_);
    const std::vector<double>& y = ywork_;
    result->duals.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i)
      result->duals[static_cast<std::size_t>(i)] =
          maximize_ ? -y[static_cast<std::size_t>(i)] : y[static_cast<std::size_t>(i)];
    result->reduced_costs.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double d = reduced_cost(j, cost2_, y);
      result->reduced_costs[static_cast<std::size_t>(j)] = maximize_ ? -d : d;
    }
  }
}

void Engine::export_basis(SimplexResult* result) const {
  const int structural_and_slack = n_ + m_;
  for (int i = 0; i < m_; ++i)
    if (basis_[static_cast<std::size_t>(i)] >= structural_and_slack)
      return;  // a basic artificial survived (degenerate); no snapshot
  Basis basis;
  basis.basic = basis_;
  basis.status.resize(static_cast<std::size_t>(structural_and_slack));
  for (int j = 0; j < structural_and_slack; ++j) {
    BasisStatus s;
    switch (state_[static_cast<std::size_t>(j)]) {
      case VarState::kBasic: s = BasisStatus::kBasic; break;
      case VarState::kAtLower: s = BasisStatus::kAtLower; break;
      case VarState::kAtUpper: s = BasisStatus::kAtUpper; break;
      default: s = BasisStatus::kFree; break;
    }
    basis.status[static_cast<std::size_t>(j)] = s;
  }
  result->basis = std::move(basis);
  result->factor = std::make_shared<Factorization>(lu_.snapshot());
}

SimplexResult Engine::solve_cold(const std::vector<BoundOverride>& overrides) {
  prepare(overrides);
  for (int j = 0; j < total_; ++j) {
    if (lower_[static_cast<std::size_t>(j)] > upper_[static_cast<std::size_t>(j)]) {
      SimplexResult result;
      result.status = SolveStatus::kInfeasible;
      return result;
    }
  }
  SimplexResult result;
  if (!start_cold()) {
    result.status = SolveStatus::kNumericalFailure;
    result.factor_stats = lu_.stats();
    result.recovery = recovery_;
    return result;
  }

  // Phase 1: drive artificial infeasibility to zero (skipped when the slack
  // start was already feasible).
  if (first_artificial_ < total_) {
    double phase1_obj = 0.0;
    SolveStatus st = iterate(cost1_, &phase1_obj, &phase1_iterations_);
    result.phase1_iterations = phase1_iterations_;
    if (st == SolveStatus::kIterationLimit || st == SolveStatus::kNumericalFailure) {
      result.status = st;
      result.iterations = total_iterations_;
      result.factor_stats = lu_.stats();
      result.recovery = recovery_;
      return result;
    }
    INSCHED_ASSERT(st != SolveStatus::kUnbounded);  // phase-1 objective >= 0
    if (phase1_infeasibility() > tol::kResidualTol) {
      // Never declare infeasibility off drifted values: when the residual
      // check fails, re-derive the point from fresh factors and
      // re-optimize phase 1 once before trusting the verdict.
      if (opt_.enable_recovery && !residuals_ok() && recoveries_ < kMaxRecoveries) {
        ++recoveries_;
        ++recovery_.residual_failures;
        ++recovery_.resolves;
        if (refactorize()) {
          st = iterate(cost1_, &phase1_obj, &phase1_iterations_);
          result.phase1_iterations = phase1_iterations_;
          if (st != SolveStatus::kOptimal) {
            result.status = st == SolveStatus::kUnbounded ? SolveStatus::kNumericalFailure : st;
            result.iterations = total_iterations_;
            result.factor_stats = lu_.stats();
            result.recovery = recovery_;
            return result;
          }
        }
      }
      if (phase1_infeasibility() > tol::kResidualTol) {
        result.status = SolveStatus::kInfeasible;
        result.iterations = total_iterations_;
        result.factor_stats = lu_.stats();
        result.recovery = recovery_;
        return result;
      }
    }
    // Pin artificials at zero for phase 2.
    for (int j = first_artificial_; j < total_; ++j) {
      lower_[static_cast<std::size_t>(j)] = 0.0;
      upper_[static_cast<std::size_t>(j)] = 0.0;
      if (state_[static_cast<std::size_t>(j)] != VarState::kBasic) {
        state_[static_cast<std::size_t>(j)] = VarState::kAtLower;
        value_[static_cast<std::size_t>(j)] = 0.0;
      }
    }
  }

  double phase2_obj = 0.0;
  int phase2_iters = 0;
  SolveStatus st = iterate(cost2_, &phase2_obj, &phase2_iters);
  if (st == SolveStatus::kOptimal && !residuals_ok()) {
    // Detection at the exit: the optimal point must satisfy A x = b. On
    // drift, re-solve once from fresh factors before reporting failure.
    ++recovery_.residual_failures;
    st = SolveStatus::kNumericalFailure;
    if (opt_.enable_recovery && recoveries_ < kMaxRecoveries) {
      ++recoveries_;
      ++recovery_.resolves;
      if (refactorize()) {
        st = iterate(cost2_, &phase2_obj, &phase2_iters);
        if (st == SolveStatus::kOptimal && !residuals_ok())
          st = SolveStatus::kNumericalFailure;
      }
    }
  }
  result.iterations = total_iterations_;
  result.phase1_iterations = phase1_iterations_;
  result.status = st;
  if (st != SolveStatus::kOptimal) {
    result.factor_stats = lu_.stats();
    result.recovery = recovery_;
    return result;
  }

  extract(&result);
  if (opt_.collect_basis) export_basis(&result);
  result.factor_stats = lu_.stats();
  result.recovery = recovery_;
  return result;
}

SimplexResult Engine::solve_dual(const std::vector<BoundOverride>& overrides,
                                 const Basis& start, const Factorization* hint) {
  prepare(overrides);
  SimplexResult result;
  for (int j = 0; j < total_; ++j) {
    if (lower_[static_cast<std::size_t>(j)] > upper_[static_cast<std::size_t>(j)]) {
      result.status = SolveStatus::kInfeasible;
      return result;
    }
  }
  if (!load_basis(start, hint)) {
    result.status = SolveStatus::kNumericalFailure;
    result.factor_stats = lu_.stats();
    result.recovery = recovery_;
    return result;
  }

  // One dual+cleanup pass; run_pass is re-entered by the in-engine re-solve
  // rungs below (fresh factors, same basis) before the caller pays for a
  // cold restart.
  auto run_pass = [&]() -> SolveStatus {
    int dual_iters = 0;
    SolveStatus st = iterate_dual(cost2_, &dual_iters);
    if (st == SolveStatus::kOptimal) {
      // The dual loop restored primal feasibility; a short primal cleanup
      // clears any dual infeasibility introduced by bound snapping (usually
      // zero pivots).
      double obj = 0.0;
      int cleanup_iters = 0;
      st = iterate(cost2_, &obj, &cleanup_iters);
    }
    return st;
  };

  SolveStatus st = run_pass();
  if (st == SolveStatus::kNumericalFailure && opt_.enable_recovery &&
      recoveries_ < kMaxRecoveries) {
    ++recoveries_;
    ++recovery_.resolves;
    if (refactorize()) st = run_pass();
  }
  if (st == SolveStatus::kOptimal && !residuals_ok()) {
    // A stale factorization hint can silently corrupt the solution; verify
    // A x = b before trusting the warm result, re-solving once from fresh
    // factors when it drifted.
    ++recovery_.residual_failures;
    st = SolveStatus::kNumericalFailure;
    if (opt_.enable_recovery && recoveries_ < kMaxRecoveries) {
      ++recoveries_;
      ++recovery_.resolves;
      if (refactorize()) {
        st = run_pass();
        if (st == SolveStatus::kOptimal && !residuals_ok())
          st = SolveStatus::kNumericalFailure;
      }
    }
  }
  result.iterations = total_iterations_;
  result.status = st;
  if (st != SolveStatus::kOptimal) {
    result.factor_stats = lu_.stats();
    result.recovery = recovery_;
    return result;
  }

  extract(&result);
  if (opt_.collect_basis) export_basis(&result);
  result.factor_stats = lu_.stats();
  result.recovery = recovery_;
  return result;
}

}  // namespace

struct WarmSimplex::Impl {
  Engine engine;
  Impl(const Model& base, const SimplexOptions& options) : engine(base, options) {}
};

WarmSimplex::WarmSimplex(const Model& base, const SimplexOptions& options)
    : impl_(std::make_unique<Impl>(base, options)) {}
WarmSimplex::~WarmSimplex() = default;
WarmSimplex::WarmSimplex(WarmSimplex&&) noexcept = default;
WarmSimplex& WarmSimplex::operator=(WarmSimplex&&) noexcept = default;

SimplexResult WarmSimplex::solve_dual(const std::vector<BoundOverride>& overrides,
                                      const Basis& start, const Factorization* hint) {
  return impl_->engine.solve_dual(overrides, start, hint);
}

SimplexResult WarmSimplex::solve_cold(const std::vector<BoundOverride>& overrides) {
  return impl_->engine.solve_cold(overrides);
}

SimplexResult solve_lp(const Model& model, const SimplexOptions& options) {
  Engine engine(model, options);
  return engine.solve_cold({});
}

SimplexResult solve_lp_dual(const Model& model, const Basis& start,
                            const SimplexOptions& options) {
  Engine engine(model, options);
  return engine.solve_dual({}, start, nullptr);
}

}  // namespace insched::lp
