#include "insched/mip/warm_state.hpp"

namespace insched::mip {

std::optional<lp::Basis> MipWarmState::root_basis(int columns, int rows) const {
  MutexLock lock(mu_);
  if (basis_columns_ != columns || basis_rows_ != rows || basis_.empty()) return std::nullopt;
  return basis_;
}

void MipWarmState::publish_root_basis(int columns, int rows, const lp::Basis& basis) {
  if (basis.empty()) return;
  MutexLock lock(mu_);
  basis_columns_ = columns;
  basis_rows_ = rows;
  basis_ = basis;
}

std::optional<PseudoCostTable> MipWarmState::pseudo_costs(int columns) const {
  MutexLock lock(mu_);
  if (pc_columns_ != columns) return std::nullopt;
  return pc_;
}

void MipWarmState::publish_pseudo_costs(const PseudoCostTable& table) {
  const int columns = static_cast<int>(table.up_sum.size());
  if (columns == 0) return;
  MutexLock lock(mu_);
  pc_ = table;
  pc_columns_ = columns;
}

}  // namespace insched::mip
