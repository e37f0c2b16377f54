#include "gc/spread_compat.h"

namespace tordb::gc {

SpreadMailbox::SpreadMailbox(Network& net, NodeId node) : net_(net), node_(node) {
  net_.set_group_active(node_, false);
}

SpreadMailbox::~SpreadMailbox() { leave(); }

void SpreadMailbox::join() {
  if (gc_) return;
  Listener listener;
  listener.on_regular_config = [this](const Configuration& c) {
    SpEvent ev;
    ev.type = SpEventType::kRegularMembership;
    ev.members = c.members;
    ev.config = c.id;
    queue_.push_back(std::move(ev));
  };
  listener.on_transitional_config = [this](const Configuration& c) {
    SpEvent ev;
    ev.type = SpEventType::kTransitionalMembership;
    ev.members = c.members;
    ev.config = c.id;
    queue_.push_back(std::move(ev));
  };
  listener.on_deliver = [this](const Delivery& d) {
    SpEvent ev;
    ev.type = SpEventType::kMessage;
    ev.sender = d.sender;
    ev.payload.assign(d.payload.begin(), d.payload.end());
    ev.safe_delivered = d.kind == DeliveryKind::kSafeInRegular;
    ev.config = d.config;
    queue_.push_back(std::move(ev));
  };
  gc_ = std::make_unique<GroupCommunication>(net_, node_, std::move(listener),
                                             config_counter_ + 1);
  net_.set_group_active(node_, true);
}

void SpreadMailbox::leave() {
  if (!gc_) return;
  config_counter_ = gc_->max_counter_seen();
  gc_->flush_ack();  // peers must learn what we received to deliver it safe
  gc_.reset();
  net_.set_group_active(node_, false);
}

void SpreadMailbox::multicast(Bytes payload, SpService service) {
  if (!gc_) return;
  gc_->multicast(std::move(payload),
                 service == SpService::kSafe ? Service::kSafe : Service::kAgreed);
}

std::optional<SpEvent> SpreadMailbox::receive() {
  if (queue_.empty()) return std::nullopt;
  SpEvent ev = std::move(queue_.front());
  queue_.pop_front();
  return ev;
}

std::vector<NodeId> SpreadMailbox::current_members() const {
  if (!gc_) return {};
  return gc_->config().members;
}

}  // namespace tordb::gc
