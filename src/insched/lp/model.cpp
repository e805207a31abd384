#include "insched/lp/model.hpp"

#include <cmath>
#include <map>

#include "insched/support/assert.hpp"
#include "insched/support/string_util.hpp"

namespace insched::lp {

int Model::add_column(std::string name, double lower, double upper, double objective,
                      VarType type) {
  INSCHED_EXPECTS(lower <= upper);
  if (type == VarType::kBinary) {
    INSCHED_EXPECTS(lower >= 0.0 && upper <= 1.0);
  }
  columns_.push_back(Column{std::move(name), lower, upper, objective, type});
  return num_columns() - 1;
}

int Model::add_row(std::string name, RowType type, double rhs, std::vector<RowEntry> entries) {
  // Merge duplicates so downstream dense expansion stays well-defined.
  std::map<int, double> merged;
  for (const RowEntry& e : entries) {
    INSCHED_EXPECTS(e.column >= 0 && e.column < num_columns());
    merged[e.column] += e.coeff;
  }
  Row row;
  row.name = std::move(name);
  row.type = type;
  row.rhs = rhs;
  row.entries.reserve(merged.size());
  for (const auto& [col, coeff] : merged) {
    if (coeff != 0.0) row.entries.push_back(RowEntry{col, coeff});
  }
  rows_.push_back(std::move(row));
  return num_rows() - 1;
}

void Model::add_entry(int row, int column, double coeff) {
  INSCHED_EXPECTS(row >= 0 && row < num_rows());
  INSCHED_EXPECTS(column >= 0 && column < num_columns());
  for (RowEntry& e : rows_[static_cast<std::size_t>(row)].entries) {
    if (e.column == column) {
      e.coeff += coeff;
      return;
    }
  }
  rows_[static_cast<std::size_t>(row)].entries.push_back(RowEntry{column, coeff});
}

void Model::set_objective(int column, double coeff) {
  INSCHED_EXPECTS(column >= 0 && column < num_columns());
  columns_[static_cast<std::size_t>(column)].objective = coeff;
}

void Model::set_type(int column, VarType type) {
  INSCHED_EXPECTS(column >= 0 && column < num_columns());
  columns_[static_cast<std::size_t>(column)].type = type;
}

void Model::set_row_coeff(int row, int entry_index, double coeff) {
  INSCHED_EXPECTS(row >= 0 && row < num_rows());
  auto& entries = rows_[static_cast<std::size_t>(row)].entries;
  INSCHED_EXPECTS(entry_index >= 0 && entry_index < static_cast<int>(entries.size()));
  entries[static_cast<std::size_t>(entry_index)].coeff = coeff;
}

void Model::set_row_rhs(int row, double rhs) {
  INSCHED_EXPECTS(row >= 0 && row < num_rows());
  rows_[static_cast<std::size_t>(row)].rhs = rhs;
}

void Model::set_bounds(int column, double lower, double upper) {
  INSCHED_EXPECTS(column >= 0 && column < num_columns());
  INSCHED_EXPECTS(lower <= upper);
  columns_[static_cast<std::size_t>(column)].lower = lower;
  columns_[static_cast<std::size_t>(column)].upper = upper;
}

bool Model::has_integers() const noexcept {
  for (const Column& c : columns_) {
    if (c.type != VarType::kContinuous) return true;
  }
  return false;
}

double Model::objective_value(const std::vector<double>& x) const {
  INSCHED_EXPECTS(x.size() == columns_.size());
  double value = obj_constant_;
  for (std::size_t j = 0; j < columns_.size(); ++j) value += columns_[j].objective * x[j];
  return value;
}

double Model::row_activity(int row, const std::vector<double>& x) const {
  INSCHED_EXPECTS(row >= 0 && row < num_rows());
  INSCHED_EXPECTS(x.size() == columns_.size());
  double activity = 0.0;
  for (const RowEntry& e : rows_[static_cast<std::size_t>(row)].entries)
    activity += e.coeff * x[static_cast<std::size_t>(e.column)];
  return activity;
}

bool Model::is_feasible(const std::vector<double>& x, double tol) const {
  if (x.size() != columns_.size()) return false;
  for (std::size_t j = 0; j < columns_.size(); ++j) {
    const Column& c = columns_[j];
    if (x[j] < c.lower - tol || x[j] > c.upper + tol) return false;
    if (c.type != VarType::kContinuous &&
        std::fabs(x[j] - std::round(x[j])) > tol)
      return false;
  }
  for (int i = 0; i < num_rows(); ++i) {
    const double activity = row_activity(i, x);
    const Row& r = rows_[static_cast<std::size_t>(i)];
    switch (r.type) {
      case RowType::kLe:
        if (activity > r.rhs + tol) return false;
        break;
      case RowType::kGe:
        if (activity < r.rhs - tol) return false;
        break;
      case RowType::kEq:
        if (std::fabs(activity - r.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

std::string Model::to_string() const {
  std::string out = sense_ == Sense::kMinimize ? "minimize\n " : "maximize\n ";
  for (int j = 0; j < num_columns(); ++j) {
    const Column& c = columns_[static_cast<std::size_t>(j)];
    if (c.objective != 0.0)
      out += format(" %+g %s", c.objective, c.name.empty() ? format("x%d", j).c_str()
                                                            : c.name.c_str());
  }
  out += "\nsubject to\n";
  for (const Row& r : rows_) {
    out += " ";
    for (const RowEntry& e : r.entries) {
      const Column& c = columns_[static_cast<std::size_t>(e.column)];
      out += format(" %+g %s", e.coeff,
                    c.name.empty() ? format("x%d", e.column).c_str() : c.name.c_str());
    }
    const char* op = r.type == RowType::kLe ? "<=" : (r.type == RowType::kGe ? ">=" : "=");
    out += format(" %s %g", op, r.rhs);
    if (!r.name.empty()) out += "   (" + r.name + ")";
    out += '\n';
  }
  out += "bounds\n";
  for (int j = 0; j < num_columns(); ++j) {
    const Column& c = columns_[static_cast<std::size_t>(j)];
    out += format(" %g <= %s <= %g%s\n", c.lower,
                  c.name.empty() ? format("x%d", j).c_str() : c.name.c_str(), c.upper,
                  c.type == VarType::kContinuous ? "" : " integer");
  }
  return out;
}

}  // namespace insched::lp
