#include "netsim/network.hpp"

#include <cassert>
#include <utility>

namespace ncfn::netsim {

Link::Link(Network& net, NodeId from, NodeId to, const LinkConfig& cfg)
    : net_(net),
      from_(from),
      to_(to),
      capacity_bps_(cfg.capacity_bps),
      prop_delay_(cfg.prop_delay),
      jitter_(cfg.jitter),
      queue_limit_(cfg.queue_packets) {}

void Link::bind_obs(obs::Observability* obs) {
  if (obs == nullptr) {
    trace_ = nullptr;
    m_enqueued_ = m_delivered_ = m_bytes_ = m_drop_loss_ = m_drop_queue_ =
        m_drop_down_ = nullptr;
    m_queue_depth_ = m_busy_s_ = nullptr;
    return;
  }
  trace_ = &obs->trace;
  const std::string prefix = "netsim.link." + std::to_string(from_) + "-" +
                             std::to_string(to_) + ".";
  m_enqueued_ = &obs->metrics.counter(prefix + "enqueued");
  m_delivered_ = &obs->metrics.counter(prefix + "delivered");
  m_bytes_ = &obs->metrics.counter(prefix + "bytes_delivered");
  m_drop_loss_ = &obs->metrics.counter(prefix + "dropped_loss");
  m_drop_queue_ = &obs->metrics.counter(prefix + "dropped_queue");
  m_drop_down_ = &obs->metrics.counter(prefix + "dropped_down");
  m_queue_depth_ = &obs->metrics.gauge(prefix + "queue_depth");
  // Cumulative serializer busy time: utilization over [0, T] is
  // busy_s / T without any per-delivery division on the hot path.
  m_busy_s_ = &obs->metrics.gauge(prefix + "busy_s");
}

void Link::set_up(bool up) {
  if (up == up_) return;
  up_ = up;
  if (!up) ++down_epoch_;  // packets in flight are lost at delivery time
  if (trace_ != nullptr) trace_->link_state(from_, to_, up);
}

void Link::drop(Datagram& d, std::uint64_t& stat, obs::Counter* counter,
                const char* reason) {
  ++stat;
  if (counter != nullptr) counter->inc();
  if (trace_ != nullptr) {
    trace_->packet_drop(from_, to_, d.wire_bytes(), reason);
  }
  net_.recycle_buffer(std::move(d.payload));
}

std::optional<Time> Link::admit(Datagram& d) {
  ++stats_.offered;
  // The first failing check names the drop. The loss model draws only for
  // packets that reach it, one draw per packet in arrival order.
  if (!up_) {
    drop(d, stats_.dropped_down, m_drop_down_, "down");
    return std::nullopt;
  }
  if (loss_ && loss_->drop(net_.rng())) {
    drop(d, stats_.dropped_loss, m_drop_loss_, "loss");
    return std::nullopt;
  }
  if (queued_ >= queue_limit_) {
    drop(d, stats_.dropped_queue, m_drop_queue_, "queue");
    return std::nullopt;
  }
  const Time tx = static_cast<double>(d.wire_bytes()) * 8.0 / capacity_bps_;
  busy_until_ = std::max(net_.sim().now(), busy_until_) + tx;
  ++queued_;
  if (trace_ != nullptr) {
    trace_->packet_enqueue(from_, to_, d.wire_bytes(), queued_);
  }
  return tx;
}

void Link::transmit(Datagram d) {
  const std::optional<Time> tx = admit(d);
  if (!tx) return;
  if (m_enqueued_ != nullptr) {
    m_enqueued_->inc();
    m_queue_depth_->set(static_cast<double>(queued_));
    m_busy_s_->add(*tx);
  }
  Simulator& sim = net_.sim();

  // The egress queue empties when the serializer finishes the packet, not
  // when the packet lands `prop_delay_` later: a long-delay path must not
  // eat queue budget with packets that are already in propagation.
  // Scheduled before the delivery event so that at equal timestamps
  // (zero-delay links) the queue shrinks before delivery is observed.
  sim.schedule_at(busy_until_, [self = weak_from_this()] {
    if (auto link = self.lock()) link->serializer_departure();
  });

  Time deliver_at = busy_until_ + prop_delay_;
  if (jitter_ > 0) {
    deliver_at += std::uniform_real_distribution<Time>(0, jitter_)(net_.rng());
  }
  ++stats_.in_flight;
  // Weak handle: if the link is replaced/removed while the packet is in
  // flight, the packet evaporates instead of touching a dead Link. The
  // Network itself outlives every event (it owns the Simulator).
  sim.schedule_at(deliver_at, [self = weak_from_this(), net = &net_,
                               epoch = down_epoch_,
                               pkt = std::move(d)]() mutable {
    if (auto link = self.lock()) {
      link->complete_delivery(std::move(pkt), epoch);
    } else {
      net->recycle_buffer(std::move(pkt.payload));
    }
  });
}

void Link::transmit_burst(std::span<Datagram> burst) {
  if (burst.empty()) return;
  if (burst.size() == 1) {
    transmit(std::move(burst.front()));
    return;
  }
  Simulator& sim = net_.sim();

  // Per-packet admission, exactly as transmit(). Survivors move into the
  // burst vector that rides the shared delivery event.
  std::vector<Datagram> committed;
  committed.reserve(burst.size());
  double burst_tx = 0.0;
  for (Datagram& d : burst) {
    const std::optional<Time> tx = admit(d);
    if (!tx) continue;
    burst_tx += *tx;
    committed.push_back(std::move(d));
  }
  if (committed.empty()) return;
  const std::size_t n = committed.size();
  if (m_enqueued_ != nullptr) {
    m_enqueued_->inc(n);
    m_queue_depth_->set(static_cast<double>(queued_));
    m_busy_s_->add(burst_tx);
  }

  // One departure for the burst's tail packet (scheduled first, so a
  // zero-delay delivery at the same timestamp observes the drained
  // queue, matching transmit()'s ordering)...
  sim.schedule_at(busy_until_, [self = weak_from_this(), n] {
    if (auto link = self.lock()) link->burst_departure(n);
  });

  // ...and one delivery with a single jitter draw for the whole burst.
  Time deliver_at = busy_until_ + prop_delay_;
  if (jitter_ > 0) {
    deliver_at += std::uniform_real_distribution<Time>(0, jitter_)(net_.rng());
  }
  stats_.in_flight += n;
  sim.schedule_at(deliver_at, [self = weak_from_this(), net = &net_,
                               epoch = down_epoch_,
                               pkts = std::move(committed)]() mutable {
    if (auto link = self.lock()) {
      link->complete_burst_delivery(std::move(pkts), epoch);
    } else {
      for (Datagram& p : pkts) net->recycle_buffer(std::move(p.payload));
    }
  });
}

void Link::serializer_departure() {
  --queued_;
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(queued_));
  }
}

void Link::burst_departure(std::size_t n) {
  assert(queued_ >= n);
  queued_ -= n;
  if (m_queue_depth_ != nullptr) {
    m_queue_depth_->set(static_cast<double>(queued_));
  }
}

void Link::complete_delivery(Datagram pkt, std::uint64_t epoch) {
  --stats_.in_flight;
  if (epoch != down_epoch_) {
    // The link went down after this packet was committed to the wire.
    drop(pkt, stats_.dropped_down, m_drop_down_, "down");
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += pkt.wire_bytes();
  if (m_delivered_ != nullptr) {
    m_delivered_->inc();
    m_bytes_->inc(pkt.wire_bytes());
  }
  if (trace_ != nullptr) {
    trace_->packet_deliver(from_, to_, pkt.wire_bytes(), queued_);
  }
  net_.deliver(pkt);
  // Handlers see the datagram by const reference (and copy what they
  // keep), so the payload storage can go back to the pool.
  net_.recycle_buffer(std::move(pkt.payload));
}

void Link::complete_burst_delivery(std::vector<Datagram> pkts,
                                   std::uint64_t epoch) {
  stats_.in_flight -= pkts.size();
  if (epoch != down_epoch_) {
    // The link went down while the burst was committed to the wire; every
    // packet in it is lost together.
    for (Datagram& p : pkts) drop(p, stats_.dropped_down, m_drop_down_, "down");
    return;
  }
  std::uint64_t bytes = 0;
  for (const Datagram& p : pkts) {
    ++stats_.delivered;
    stats_.bytes_delivered += p.wire_bytes();
    bytes += p.wire_bytes();
    if (trace_ != nullptr) {
      trace_->packet_deliver(from_, to_, p.wire_bytes(), queued_);
    }
  }
  if (m_delivered_ != nullptr) {
    m_delivered_->inc(pkts.size());
    m_bytes_->inc(bytes);
  }
  net_.deliver_burst(pkts);
  for (Datagram& p : pkts) net_.recycle_buffer(std::move(p.payload));
}

NodeId Network::add_node(std::string name) {
  node_names_.push_back(std::move(name));
  return static_cast<NodeId>(node_names_.size() - 1);
}

Link& Network::add_link(NodeId from, NodeId to, const LinkConfig& cfg) {
  auto link = std::make_shared<Link>(*this, from, to, cfg);
  link->bind_obs(obs_);
  auto& slot = links_[{from, to}];
  // Replacing drops the last strong reference to any previous link; its
  // in-flight delivery events hold weak handles and become no-ops.
  slot = std::move(link);
  return *slot;
}

void Network::set_node_up(NodeId node, bool up) {
  if (node >= node_down_.size()) node_down_.resize(node + 1, false);
  if (node_down_[node] == !up) return;
  node_down_[node] = !up;
  if (obs_ != nullptr) obs_->trace.node_state(node, up);
  for (auto& [key, link] : links_) {
    if (key.first == node || key.second == node) link->set_up(up);
  }
}

void Network::set_obs(obs::Observability* obs) {
  obs_ = obs;
  for (auto& [key, link] : links_) link->bind_obs(obs);
}

void Network::add_duplex_link(NodeId a, NodeId b, const LinkConfig& cfg) {
  add_link(a, b, cfg);
  add_link(b, a, cfg);
}

Link* Network::link(NodeId from, NodeId to) {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

const Link* Network::link(NodeId from, NodeId to) const {
  auto it = links_.find({from, to});
  return it == links_.end() ? nullptr : it->second.get();
}

void Network::bind(NodeId node, Port port, DatagramHandler handler) {
  handlers_[{node, port}] = std::move(handler);
}

void Network::unbind(NodeId node, Port port) {
  handlers_.erase({node, port});
}

void Network::bind_burst(NodeId node, Port port, BurstHandler handler) {
  burst_handlers_[{node, port}] = std::move(handler);
}

void Network::unbind_burst(NodeId node, Port port) {
  burst_handlers_.erase({node, port});
}

bool Network::send(Datagram d) {
  Link* l = link(d.src, d.dst);
  if (l == nullptr) {
    recycle_buffer(std::move(d.payload));
    return false;
  }
  l->transmit(std::move(d));
  return true;
}

void Network::send_burst(std::vector<Datagram>&& burst) {
  // Consecutive same-(src, dst) runs share one link lookup and one
  // transmit_burst; the common case (a lane flushing to one next hop) is
  // a single run.
  std::size_t i = 0;
  while (i < burst.size()) {
    std::size_t j = i + 1;
    while (j < burst.size() && burst[j].src == burst[i].src &&
           burst[j].dst == burst[i].dst) {
      ++j;
    }
    Link* l = link(burst[i].src, burst[i].dst);
    if (l == nullptr) {
      for (std::size_t k = i; k < j; ++k) {
        recycle_buffer(std::move(burst[k].payload));
      }
    } else {
      l->transmit_burst(std::span<Datagram>(burst).subspan(i, j - i));
    }
    i = j;
  }
  burst.clear();
}

std::vector<std::string> Network::audit_conservation() const {
  std::vector<std::string> violations;
  for (const auto& [key, link] : links_) {
    const LinkStats& s = link->stats();
    if (s.conserved()) continue;
    violations.push_back(
        std::to_string(key.first) + "->" + std::to_string(key.second) +
        ": offered " + std::to_string(s.offered) + " != delivered " +
        std::to_string(s.delivered) + " + dropped " +
        std::to_string(s.dropped_loss + s.dropped_queue + s.dropped_down) +
        " + in_flight " + std::to_string(s.in_flight));
  }
  return violations;
}

std::vector<std::uint8_t> Network::take_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buf = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buf.clear();
  return buf;
}

void Network::recycle_buffer(std::vector<std::uint8_t>&& buf) {
  if (buf.capacity() == 0 || buffer_pool_.size() >= kMaxRecycledBuffers) {
    return;
  }
  buffer_pool_.push_back(std::move(buf));
}

void Network::deliver(const Datagram& d) {
  if (!node_up(d.dst)) return;  // machine down: datagram vanishes
  auto it = handlers_.find({d.dst, d.dst_port});
  if (it != handlers_.end()) it->second(d);
  // No binding: silently dropped, like a closed UDP port.
}

void Network::deliver_burst(std::span<Datagram> burst) {
  if (burst.empty()) return;
  if (!node_up(burst.front().dst)) return;  // one link => one dst node
  std::size_t i = 0;
  while (i < burst.size()) {
    std::size_t j = i + 1;
    while (j < burst.size() && burst[j].dst_port == burst[i].dst_port) ++j;
    if (auto it = burst_handlers_.find({burst[i].dst, burst[i].dst_port});
        it != burst_handlers_.end()) {
      it->second(burst.subspan(i, j - i));
    } else {
      for (std::size_t k = i; k < j; ++k) deliver(burst[k]);
    }
    i = j;
  }
}

std::optional<Time> Network::ping_rtt(NodeId a, NodeId b,
                                      std::size_t probe_bytes) const {
  const Link* fwd = link(a, b);
  const Link* rev = link(b, a);
  if (fwd == nullptr || rev == nullptr) return std::nullopt;
  const double bits = static_cast<double>(probe_bytes + kUdpIpOverhead) * 8.0;
  return fwd->prop_delay() + bits / fwd->capacity_bps() + rev->prop_delay() +
         bits / rev->capacity_bps();
}

std::optional<double> Network::probe_bandwidth_bps(NodeId a, NodeId b,
                                                   double noise_frac) {
  Link* l = link(a, b);
  if (l == nullptr) return std::nullopt;
  std::uniform_real_distribution<double> noise(1.0 - noise_frac,
                                               1.0 + noise_frac);
  return l->capacity_bps() * noise(rng_);
}

}  // namespace ncfn::netsim
