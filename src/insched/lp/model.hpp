#pragma once

// Linear/mixed-integer model container. Columns are variables with bounds
// (+-infinity allowed), rows are linear constraints. The same Model feeds the
// pure-LP simplex (integrality ignored) and the branch-and-bound MIP solver.

#include <limits>
#include <string>
#include <vector>

#include "insched/lp/tolerances.hpp"

namespace insched::lp {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Sense { kMinimize, kMaximize };
enum class RowType { kLe, kGe, kEq };
enum class VarType { kContinuous, kInteger, kBinary };

struct Column {
  std::string name;
  double lower = 0.0;
  double upper = kInf;
  double objective = 0.0;
  VarType type = VarType::kContinuous;
};

struct RowEntry {
  int column = -1;
  double coeff = 0.0;
};

struct Row {
  std::string name;
  RowType type = RowType::kLe;
  double rhs = 0.0;
  std::vector<RowEntry> entries;
};

class Model {
 public:
  /// Adds a variable; returns its column index.
  int add_column(std::string name, double lower, double upper, double objective,
                 VarType type = VarType::kContinuous);

  /// Adds a constraint with the given entries; returns its row index.
  /// Duplicate column indices within one row are summed.
  int add_row(std::string name, RowType type, double rhs, std::vector<RowEntry> entries);

  /// Appends one coefficient to an existing row.
  void add_entry(int row, int column, double coeff);

  void set_sense(Sense sense) noexcept { sense_ = sense; }
  [[nodiscard]] Sense sense() const noexcept { return sense_; }

  void set_objective_constant(double c) noexcept { obj_constant_ = c; }
  [[nodiscard]] double objective_constant() const noexcept { return obj_constant_; }

  void set_objective(int column, double coeff);
  void set_bounds(int column, double lower, double upper);
  void set_type(int column, VarType type);
  /// Overwrites the coefficient of the `entry_index`-th entry of `row`
  /// (presolve coefficient tightening; does not add/remove entries).
  void set_row_coeff(int row, int entry_index, double coeff);
  void set_row_rhs(int row, double rhs);

  [[nodiscard]] int num_columns() const noexcept { return static_cast<int>(columns_.size()); }
  [[nodiscard]] int num_rows() const noexcept { return static_cast<int>(rows_.size()); }
  [[nodiscard]] const Column& column(int j) const { return columns_.at(static_cast<std::size_t>(j)); }
  [[nodiscard]] const Row& row(int i) const { return rows_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] const std::vector<Column>& columns() const noexcept { return columns_; }
  [[nodiscard]] const std::vector<Row>& rows() const noexcept { return rows_; }

  [[nodiscard]] bool has_integers() const noexcept;

  /// Evaluates the objective (including constant) at a point.
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

  /// Evaluates row activity sum(a_ij x_j).
  [[nodiscard]] double row_activity(int row, const std::vector<double>& x) const;

  /// True when `x` satisfies all rows and bounds within `tol`, and integral
  /// columns are integral within `tol`.
  [[nodiscard]] bool is_feasible(const std::vector<double>& x, double tol = ::insched::lp::tol::kResidualTol) const;

  /// Human-readable dump (LP-format-like) for debugging.
  [[nodiscard]] std::string to_string() const;

 private:
  Sense sense_ = Sense::kMinimize;
  double obj_constant_ = 0.0;
  std::vector<Column> columns_;
  std::vector<Row> rows_;
};

}  // namespace insched::lp
