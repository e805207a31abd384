#include "insched/scheduler/recurrence.hpp"

namespace insched::scheduler::recurrence {

Walker::Walker(std::size_t analyses, double mth) : mth_(mth), slots_(analyses) {
  INSCHED_EXPECTS(mth >= 0.0);
}

Walker::Walker(const Schedule& schedule, double mth) : Walker(schedule.size(), mth) {
  schedule_ = &schedule;
}

double Walker::commit(long step) {
  double sample = 0.0;
  for (const Slot& slot : slots_) sample += slot.mem;
  close_step(step, open_seconds_, sample);
  open_seconds_ = 0.0;
  return sample;
}

void Walker::close_step(long step, double seconds, double sample) {
  if (sample > peak_) {
    peak_ = sample;
    peak_step_ = step;
  }
  if (sample_exceeds_budget(sample, mth_)) ++violations_;
  step_seconds_ = seconds;
  cumulative_seconds_ += seconds;
  step_ = step;
}

}  // namespace insched::scheduler::recurrence
