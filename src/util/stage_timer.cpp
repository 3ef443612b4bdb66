#include "edgedrift/util/stage_timer.hpp"

namespace edgedrift::util {

void StageTimer::Scope::start(std::string_view stage) {
  index_ = timer_->index_of(stage);
  start_ = std::chrono::steady_clock::now();
}

void StageTimer::Scope::stop() {
  const auto end = std::chrono::steady_clock::now();
  auto& entry = timer_->entries_[index_];
  entry.seconds += std::chrono::duration<double>(end - start_).count();
  entry.count += 1;
}

void StageTimer::add(std::string_view stage, double seconds) {
  auto& entry = entries_[index_of(stage)];
  entry.seconds += seconds;
  entry.count += 1;
}

double StageTimer::seconds(std::string_view stage) const {
  const Entry* e = find(stage);
  return e ? e->seconds : 0.0;
}

std::uint64_t StageTimer::count(std::string_view stage) const {
  const Entry* e = find(stage);
  return e ? e->count : 0;
}

double StageTimer::mean_ms(std::string_view stage) const {
  const Entry* e = find(stage);
  if (e == nullptr || e->count == 0) return 0.0;
  return e->seconds * 1e3 / static_cast<double>(e->count);
}

std::vector<std::string> StageTimer::stages() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& e : entries_) names.push_back(e.name);
  return names;
}

void StageTimer::reset() { entries_.clear(); }

std::size_t StageTimer::index_of(std::string_view stage) {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].name == stage) return i;
  }
  entries_.push_back(Entry{std::string(stage), 0.0, 0});
  return entries_.size() - 1;
}

const StageTimer::Entry* StageTimer::find(std::string_view stage) const {
  for (const auto& e : entries_) {
    if (e.name == stage) return &e;
  }
  return nullptr;
}

}  // namespace edgedrift::util
