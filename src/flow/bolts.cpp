#include "flow/bolts.h"

#include <charconv>

namespace flower::flow {

Status WindowCountBolt::Execute(const storm::Tuple& input, SimTime now,
                                const std::function<void(storm::Tuple)>& emit) {
  counter_.Add(input.entity_id, now, input.value);
  exec_input_ = &input;
  exec_emit_ = &emit;
  counter_.AdvanceTo(now, [this](int64_t entity, double count, SimTime end) {
    storm::Tuple out;
    out.origin_time = exec_input_->origin_time;
    out.entity_id = entity;
    out.value = count;
    out.size_bytes = 128;
    (void)end;
    (*exec_emit_)(out);
    ++emitted_;
  });
  exec_input_ = nullptr;
  exec_emit_ = nullptr;
  return Status::OK();
}

Status PersistBolt::Execute(const storm::Tuple& input, SimTime /*now*/,
                            const std::function<void(storm::Tuple)>& emit) {
  (void)emit;  // Terminal bolt: nothing downstream.
  // Same bytes as std::to_string(double) (correctly rounded "%f"),
  // without the printf machinery. Fits -DBL_MAX: sign, 309 integer
  // digits, '.', 6 decimals.
  char buf[320];
  char* end = std::to_chars(buf, buf + sizeof(buf), input.value,
                            std::chars_format::fixed, 6)
                  .ptr;
  Status st = table_->PutItem(input.entity_id, std::string(buf, end),
                              item_bytes_);
  if (st.ok()) ++persisted_;
  return st;
}

}  // namespace flower::flow
