#pragma once

// In-situ analysis interface. The lifecycle mirrors the paper's Table-1 cost
// decomposition exactly:
//   setup()     — once, at step 0                      (ft / fm)
//   per_step()  — every simulation step while active   (it / im)
//   analyze()   — at analysis steps (the set C_i)      (ct / cm)
//   output()    — at output steps (the set O_i)        (ot / om), returns the
//                 bytes written so the runtime can model/track I/O; also
//                 releases accumulation buffers (memory resets to fm, Eq 6).

#include <memory>
#include <string>
#include <vector>

namespace insched::analysis {

struct AnalysisResult {
  std::string label;
  std::vector<double> values;
};

class IAnalysis {
 public:
  virtual ~IAnalysis() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// One-time initialization (allocate fixed buffers).
  virtual void setup() {}

  /// Called every simulation step while the analysis is active (e.g. copy
  /// data needed by temporal analyses before the simulation overwrites it).
  virtual void per_step() {}

  /// The analysis computation; called at analysis steps.
  virtual AnalysisResult analyze() = 0;

  /// Writes/serializes buffered results; returns bytes produced. Default:
  /// nothing buffered, nothing written.
  virtual double output() { return 0.0; }

  /// Approximate resident bytes currently held by the analysis (the runtime
  /// charges its growth to the Eq 5-8 memory recurrence; mirrors fm +
  /// accumulated im/cm).
  [[nodiscard]] virtual double resident_bytes() const { return 0.0; }
};

using AnalysisPtr = std::unique_ptr<IAnalysis>;

}  // namespace insched::analysis
