#include "src/wire/node.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/wire/clock.h"

namespace dumbnet {
namespace wire {

WireAddr SwitchListenAddr(const WireNodeOptions& opts, uint32_t index) {
  WireAddr addr;
  addr.kind = opts.transport;
  if (opts.transport == TransportKind::kUds) {
    addr.uds_path = opts.uds_dir + "/sw" + std::to_string(index) + ".sock";
  } else {
    addr.tcp_port = static_cast<uint16_t>(opts.tcp_base_port + index);
  }
  return addr;
}

WireNode::WireNode(NodeId id, const Topology& topo, WireNodeOptions opts)
    : id_(id), opts_(std::move(opts)), topo_(topo) {}

WireNode::~WireNode() { Stop(); }

void WireNode::Start() {
  thread_ = std::thread([this] { ThreadMain(); });
  started_.get_future().wait();
}

void WireNode::Stop() {
  if (!thread_.joinable()) {
    return;
  }
  reactor_.Post([this] { stop_requested_ = true; });
  thread_.join();
}

int64_t WireNode::Elapsed() const { return MonotonicNowNs() - opts_.epoch_ns; }

void WireNode::ThreadMain() {
  BuildStack();
  SetupWiring();
  started_.set_value();
  const TimeNs poll_cap_ms = std::max<TimeNs>(opts_.timing.poll_cap / kNsPerMs, 1);
  for (;;) {
    // The whole loop body runs protocol code on the node thread: simulator
    // timers, posted closures, and fd handlers all share the reactor contract.
    DN_REACTOR_CONTEXT;
    reactor_.DrainPosted();
    if (stop_requested_) {
      break;
    }
    sim_->RunUntil(Elapsed());
    TimeNs next = 0;
    int timeout_ms = static_cast<int>(poll_cap_ms);
    if (sim_->PeekNextTime(&next)) {
      const TimeNs delta = next - Elapsed();
      timeout_ms = delta <= 0
                       ? 0
                       : static_cast<int>(
                             std::min<TimeNs>((delta + kNsPerMs - 1) / kNsPerMs,
                                              poll_cap_ms));
    }
    reactor_.PollOnce(timeout_ms);
  }
  TearDown();
  // Unblock any Call() posted during shutdown.
  reactor_.DrainPosted();
}

void WireNode::BuildStack() {
  sim_ = std::make_unique<Simulator>();
  // Adjacent links mirror socket liveness and start down (no connection yet).
  // Direct mutation, not SetLinkUp: no observers exist before the adapter.
  if (id_.is_switch()) {
    const SwitchInfo& info = topo_.switch_at(id_.index);
    for (PortNum port = 1; port <= info.num_ports; ++port) {
      const LinkIndex li = topo_.LinkAtPort(id_.index, port);
      if (li != kInvalidLink) {
        topo_.mutable_link(li).up = false;
      }
    }
  } else {
    const LinkIndex li = topo_.host_at(id_.index).link;
    if (li != kInvalidLink) {
      topo_.mutable_link(li).up = false;
    }
  }

  net_ = std::make_unique<WireNetAdapter>(sim_.get(), &topo_, id_, opts_.net_config);
  net_->set_send_hook(
      [this](PortNum port, const Packet& pkt) { EmitPacket(port, pkt); });

  if (id_.is_switch()) {
    switch_ = std::make_unique<DumbSwitch>(net_.get(), id_.index, opts_.switch_config);
    net_->set_backlog_probe([this](PortNum port) -> int64_t {
      return port < ports_.size() && ports_[port].conn != nullptr
                 ? ports_[port].conn->queued_bytes()
                 : 0;
    });
  } else {
    agent_ = std::make_unique<HostAgent>(net_.get(), id_.index, opts_.host_config);
    InstallPingService();
    if (opts_.run_controller) {
      controller_ = std::make_unique<ControllerService>(agent_.get(), opts_.ctrl_config,
                                                        opts_.disc_config);
    }
  }
}

void WireNode::SetupWiring() {
  const size_t num_ports =
      id_.is_switch() ? topo_.switch_at(id_.index).num_ports : size_t{1};
  ports_.resize(num_ports + 1);

  if (id_.is_switch()) {
    auto fd = ListenOn(SwitchListenAddr(opts_, id_.index));
    if (!fd.ok()) {
      DN_ERROR << "wire: " << id_.ToString()
               << " cannot listen: " << fd.error().ToString();
    } else {
      listen_fd_ = fd.value();
      reactor_.Add(listen_fd_, EPOLLIN, [this](uint32_t) { AcceptReady(); });
    }
  }

  for (PortNum port = 1; port <= num_ports; ++port) {
    const LinkIndex li = id_.is_switch() ? topo_.LinkAtPort(id_.index, port)
                                         : topo_.host_at(id_.index).link;
    if (li == kInvalidLink || topo_.link_at(li).detached) {
      continue;
    }
    PortState& ps = ports_[port];
    ps.li = li;
    ps.port = port;
    const Endpoint peer = topo_.link_at(li).Peer(id_);
    // Hosts dial their uplink switch; between switches the higher index dials
    // the lower, so exactly one side owns the reconnect loop.
    ps.dialer = id_.is_host() ||
                (peer.node.is_switch() && id_.index > peer.node.index);
    if (ps.dialer) {
      ps.peer = SwitchListenAddr(opts_, peer.node.index);
      Dial(ps);
    }
  }
}

void WireNode::TearDown() {
  for (PortState& ps : ports_) {
    ps.conn.reset();
    ps.established = false;
  }
  pending_accepts_.clear();
  if (listen_fd_ >= 0) {
    reactor_.Del(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (auto& [seq, waiter] : pending_pings_) {
    contracts::LockGuard guard(waiter->mu);
    waiter->send_failed = true;
    waiter->error = "node stopped";
    waiter->done = true;
    waiter->cv.notify_all();
  }
  pending_pings_.clear();
  // Protocol objects hold raw pointers into net_/sim_; destroy top-down, and on
  // this thread so their state is never touched cross-thread.
  controller_.reset();
  agent_.reset();
  switch_.reset();
  net_.reset();
  sim_.reset();
}

// ---------------------------------------------------------------------------------
// Wiring

void WireNode::AcceptReady() {
  for (;;) {
    const int fd = accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        return;
      }
      DN_WARN << "wire: " << id_.ToString() << " accept failed: " << errno;
      return;
    }
    auto conn = std::make_unique<Connection>(&reactor_, fd);
    Connection* raw = conn.get();
    conn->set_on_frame([this, raw](FrameType type, std::string_view body) {
      if (type != FrameType::kHello) {
        pending_accepts_.erase(raw);  // protocol violation pre-handshake
        return;
      }
      auto hello = DecodeHelloBody(body);
      if (!hello.ok()) {
        pending_accepts_.erase(raw);
        return;
      }
      AdoptAccepted(raw, hello.value());
    });
    conn->set_on_close(
        [this, raw](const std::string&) { pending_accepts_.erase(raw); });
    if (!conn->RegisterAccepted()) {
      continue;  // conn destroyed, fd closed
    }
    pending_accepts_[raw] = std::move(conn);
  }
}

void WireNode::AdoptAccepted(Connection* raw, const HelloBody& hello) {
  auto it = pending_accepts_.find(raw);
  if (it == pending_accepts_.end()) {
    return;
  }
  std::unique_ptr<Connection> conn = std::move(it->second);
  pending_accepts_.erase(it);

  // The hello claims this socket realizes link `hello.link_index`. Verify the
  // claim against the local topology before adopting: the link must exist, one
  // side must be us, and the other side must be exactly who the peer says.
  if (hello.link_index >= topo_.link_count()) {
    return;  // conn dropped
  }
  const Link& link = topo_.link_at(hello.link_index);
  const NodeId claimed = hello.from_switch ? NodeId::Switch(hello.node_index)
                                           : NodeId::Host(hello.node_index);
  if (link.detached || (link.a.node != id_ && link.b.node != id_)) {
    return;
  }
  const Endpoint peer = link.Peer(id_);
  if (peer.node != claimed || peer.port != hello.port) {
    DN_WARN << "wire: " << id_.ToString() << " rejected hello for link "
            << hello.link_index << " from " << claimed.ToString();
    return;
  }
  const PortNum port = link.Side(id_).port;
  PortState& ps = ports_[port];
  if (ps.li != hello.link_index || ps.admin_down) {
    return;  // admin-down ports refuse service until ReviveLink
  }
  if (ps.conn != nullptr) {
    // A stale carrier is still attached (e.g. the peer restarted faster than
    // our idle timeout). The fresh handshake supersedes it.
    ConnLost(ps, "superseded by new connection", /*redial=*/false);
  }
  ps.conn = std::move(conn);
  ps.conn->set_on_frame([this, port](FrameType type, std::string_view body) {
    if (type == FrameType::kPacket) {
      OnPacketFrame(port, body);
    }
    // Heartbeats update last_rx in the transport; repeated hellos are ignored.
  });
  ps.conn->set_on_close([this, port](const std::string& reason) {
    ConnLost(ports_[port], reason, /*redial=*/false);
  });
  ps.conn->SendFrame(EncodeHelloFrame(
      FrameType::kHelloAck, HelloBody{ps.li, id_.is_switch(), id_.index, port}));
  Established(ps);
}

void WireNode::Dial(PortState& ps) {
  auto fd = ConnectTo(ps.peer);
  if (!fd.ok()) {
    ScheduleRedial(ps);
    return;
  }
  ps.conn = std::make_unique<Connection>(&reactor_, fd.value());
  const PortNum port = ps.port;
  ps.conn->set_on_connected([this, port] {
    PortState& state = ports_[port];
    state.conn->SendFrame(EncodeHelloFrame(
        FrameType::kHello, HelloBody{state.li, id_.is_switch(), id_.index, port}));
  });
  ps.conn->set_on_frame([this, port](FrameType type, std::string_view body) {
    PortState& state = ports_[port];
    if (type == FrameType::kHelloAck && !state.established) {
      auto ack = DecodeHelloBody(body);
      if (!ack.ok() || ack.value().link_index != state.li) {
        ConnLost(state, "bad hello ack", /*redial=*/true);
        return;
      }
      Established(state);
      return;
    }
    if (type == FrameType::kPacket) {
      OnPacketFrame(port, body);
    }
  });
  ps.conn->set_on_close([this, port](const std::string& reason) {
    ConnLost(ports_[port], reason, /*redial=*/true);
  });
  if (!ps.conn->RegisterConnecting()) {
    ps.conn.reset();
    ScheduleRedial(ps);
  }
}

void WireNode::ScheduleRedial(PortState& ps) {
  ps.backoff = ps.backoff == 0
                   ? opts_.timing.reconnect_min
                   : std::min<TimeNs>(ps.backoff * 2, opts_.timing.reconnect_max);
  const PortNum port = ps.port;
  sim_->Cancel(ps.retry_timer);
  ps.retry_timer = sim_->ScheduleAfter(ps.backoff, [this, port] {
    PortState& state = ports_[port];
    if (!state.admin_down && state.conn == nullptr && state.dialer) {
      Dial(state);
    }
  });
}

void WireNode::Established(PortState& ps) {
  ps.established = true;
  ps.backoff = 0;
  sim_->Cancel(ps.retry_timer);
  DN_COUNTER_INC("wire.links_established");
  // Raising the local link triggers the stock Network plumbing: a detect-delay
  // event on the private simulator, then the protocol object's
  // HandlePortChange — identical to a simulated port coming up.
  topo_.SetLinkUp(ps.li, true);
  const PortNum port = ps.port;
  sim_->Cancel(ps.hb_timer);
  ps.hb_timer = sim_->ScheduleAfter(opts_.timing.heartbeat_period,
                                    [this, port] { HeartbeatTick(port); });
}

void WireNode::ConnLost(PortState& ps, const std::string& reason, bool redial) {
  sim_->Cancel(ps.hb_timer);
  sim_->Cancel(ps.retry_timer);
  const bool was_connected = ps.conn != nullptr;
  ps.conn.reset();
  if (ps.established || was_connected) {
    DN_LOG_KV(kDebug, "wire.link_lost")
        .Kv("node", id_.ToString())
        .Kv("link", ps.li)
        .Kv("reason", reason);
  }
  ps.established = false;
  topo_.SetLinkUp(ps.li, false);  // loss of physical signal, locally observed
  if (redial && ps.dialer && !ps.admin_down && !stop_requested_) {
    ScheduleRedial(ps);
  }
}

void WireNode::HeartbeatTick(PortNum port) {
  PortState& ps = ports_[port];
  if (ps.conn == nullptr || !ps.established) {
    return;
  }
  if (MonotonicNowNs() - ps.conn->last_rx_ns() > opts_.timing.idle_timeout) {
    ConnLost(ps, "idle timeout", /*redial=*/true);
    return;
  }
  ps.conn->SendFrame(EncodeFrame(FrameType::kHeartbeat, std::string_view()));
  ps.hb_timer = sim_->ScheduleAfter(opts_.timing.heartbeat_period,
                                    [this, port] { HeartbeatTick(port); });
}

// ---------------------------------------------------------------------------------
// Data path

void WireNode::EmitPacket(PortNum out_port, const Packet& pkt) {
  if (out_port >= ports_.size()) {
    return;
  }
  PortState& ps = ports_[out_port];
  if (ps.conn == nullptr || !ps.established) {
    return;  // link view raced the socket teardown; equivalent to a wire drop
  }
  ps.conn->SendFrame(EncodePacketFrame(pkt));
}

void WireNode::OnPacketFrame(PortNum in_port, std::string_view body) {
  auto pkt = DecodePacketBody(body);
  if (!pkt.ok()) {
    DN_WARN << "wire: " << id_.ToString()
            << " dropped malformed packet frame: " << pkt.error().ToString();
    DN_COUNTER_INC("wire.rx_malformed");
    return;
  }
  net_->DeliverLocal(std::move(pkt.value()), in_port);
}

// ---------------------------------------------------------------------------------
// Ping service

void WireNode::InstallPingService() {
  agent_->SetDataHandler([this](const Packet& pkt, const DataPayload& data) {
    if (!data.is_ack) {
      if (pkt.sent_time != 0) {
        // Same process, same CLOCK_MONOTONIC, shared epoch: sender virtual
        // time is directly comparable with ours.
        DN_HISTOGRAM_RECORD("wire.oneway_ns",
                            static_cast<double>(Elapsed() - pkt.sent_time));
      }
      DataPayload reply;
      reply.flow_id = data.flow_id;
      reply.ack = data.seq;
      reply.is_ack = true;
      reply.bytes = 64;
      (void)agent_->Send(pkt.eth.src_mac, data.flow_id, reply);
      return;
    }
    auto it = pending_pings_.find(data.ack);
    if (it == pending_pings_.end()) {
      return;  // late ack after timeout; harmless
    }
    std::shared_ptr<PingWaiter> waiter = it->second;
    pending_pings_.erase(it);
    contracts::LockGuard guard(waiter->mu);
    waiter->rtt_ns = MonotonicNowNs() - waiter->sent_ns;
    waiter->done = true;
    waiter->cv.notify_all();
  });
}

std::shared_ptr<PingWaiter> WireNode::SendPing(uint64_t dst_mac, uint64_t flow_id,
                                               int64_t payload_bytes,
                                               std::vector<uint64_t> uid_path) {
  auto waiter = std::make_shared<PingWaiter>();
  Post([this, waiter, dst_mac, flow_id, payload_bytes,
        uid_path = std::move(uid_path)] {
    const uint64_t seq = ++ping_seq_;
    waiter->sent_ns = MonotonicNowNs();
    pending_pings_[seq] = waiter;
    DataPayload data;
    data.flow_id = flow_id;
    data.seq = seq;
    data.bytes = payload_bytes;
    const Status status = uid_path.empty()
                              ? agent_->Send(dst_mac, flow_id, data)
                              : agent_->SendOnPath(dst_mac, uid_path, data);
    if (!status.ok()) {
      pending_pings_.erase(seq);
      contracts::LockGuard guard(waiter->mu);
      waiter->send_failed = true;
      waiter->error = status.ToString();
      waiter->done = true;
      waiter->cv.notify_all();
    }
  });
  return waiter;
}

// ---------------------------------------------------------------------------------
// Control surface

bool WireNode::FullyWired() {
  return Call([this] {
    for (const PortState& ps : ports_) {
      if (ps.li != kInvalidLink && !ps.established) {
        return false;
      }
    }
    return true;
  });
}

WireNode::PortState* WireNode::PortForLink(LinkIndex li) {
  for (PortState& ps : ports_) {
    if (ps.li == li) {
      return &ps;
    }
  }
  return nullptr;
}

void WireNode::KillLink(LinkIndex li) {
  Post([this, li] {
    PortState* ps = PortForLink(li);
    if (ps == nullptr) {
      return;
    }
    ps->admin_down = true;
    ConnLost(*ps, "admin down", /*redial=*/false);
  });
}

void WireNode::ReviveLink(LinkIndex li) {
  Post([this, li] {
    PortState* ps = PortForLink(li);
    if (ps == nullptr) {
      return;
    }
    ps->admin_down = false;
    ps->backoff = 0;
    if (ps->dialer && ps->conn == nullptr) {
      Dial(*ps);
    }
  });
}

}  // namespace wire
}  // namespace dumbnet
