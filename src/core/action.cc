#include "core/action.h"

namespace tordb::core {

void Action::encode(BufWriter& w) const {
  w.u8(static_cast<std::uint8_t>(type));
  w.action_id(id);
  w.i64(green_line);
  w.i64(client);
  w.u8(static_cast<std::uint8_t>(semantics));
  query.encode(w);
  update.encode(w);
  w.i32(subject);
  w.u32(padding);
  // Padding bytes model the action body (e.g. the SQL text); content is
  // irrelevant, size drives the latency/bandwidth model.
  for (std::uint32_t i = 0; i < padding; ++i) w.u8(0);
}

Action Action::decode(BufReader& r) {
  Action a;
  decode_into(r, a);
  return a;
}

void Action::decode_into(BufReader& r, Action& a) {
  a.type = static_cast<ActionType>(r.u8());
  a.id = r.action_id();
  a.green_line = r.i64();
  a.client = r.i64();
  a.semantics = static_cast<Semantics>(r.u8());
  db::Command::decode_into(r, a.query);
  db::Command::decode_into(r, a.update);
  a.subject = r.i32();
  a.padding = r.u32();
  for (std::uint32_t i = 0; i < a.padding; ++i) r.u8();
}

std::size_t Action::wire_size() const {
  // encode()'s fixed-width layout, summed without building the bytes
  // (ActionLog sizes every stored and trimmed body).
  return 1 + 12 + 8 + 8 + 1 + query.wire_size() + update.wire_size() + 4 + 4 + padding;
}

std::string to_string(ActionType t) {
  switch (t) {
    case ActionType::kUpdate: return "update";
    case ActionType::kPersistentJoin: return "join";
    case ActionType::kPersistentLeave: return "leave";
  }
  return "?";
}

}  // namespace tordb::core
