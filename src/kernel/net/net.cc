// Stack core: frame/packet output, ARP, IPv4 demux, /proc/netstat.
#include "src/kernel/net/net.h"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/fs/procfs.h"

namespace vos {

namespace {

constexpr MacAddr kBroadcastMac = {0xff, 0xff, 0xff, 0xff, 0xff, 0xff};
constexpr std::uint16_t kArpRequest = 1;
constexpr std::uint16_t kArpReply = 2;
constexpr std::size_t kArpLen = 28;

MacAddr MacForIp(std::uint32_t ip) {
  // Locally-administered MAC derived from the IP, the way the board would
  // fuse one per station: 02:00:aa:bb:cc:dd for a.b.c.d.
  return MacAddr{0x02, 0x00, static_cast<std::uint8_t>(ip >> 24),
                 static_cast<std::uint8_t>(ip >> 16), static_cast<std::uint8_t>(ip >> 8),
                 static_cast<std::uint8_t>(ip)};
}

std::string IpStr(std::uint32_t ip) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", (ip >> 24) & 0xff, (ip >> 16) & 0xff,
                (ip >> 8) & 0xff, ip & 0xff);
  return buf;
}

}  // namespace

std::uint16_t InetChecksum(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint64_t sum = seed;
  std::size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < len) {
    sum += static_cast<std::uint32_t>(data[i] << 8);
  }
  while (sum >> 16) {
    sum = (sum & 0xffff) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

const char* TcpStateName(TcpState s) {
  switch (s) {
    case TcpState::kClosed: return "CLOSED";
    case TcpState::kListen: return "LISTEN";
    case TcpState::kSynSent: return "SYN_SENT";
    case TcpState::kSynRcvd: return "SYN_RCVD";
    case TcpState::kEstablished: return "ESTABLISHED";
    case TcpState::kFinWait1: return "FIN_WAIT1";
    case TcpState::kFinWait2: return "FIN_WAIT2";
    case TcpState::kCloseWait: return "CLOSE_WAIT";
    case TcpState::kLastAck: return "LAST_ACK";
    case TcpState::kClosing: return "CLOSING";
    case TcpState::kTimeWait: return "TIME_WAIT";
  }
  return "?";
}

NetStack::NetStack(const KernelConfig& cfg, Sched& sched, VirtualClock& clock, EventQueue& events,
                   TraceRing& trace, Metrics& metrics, Nic& nic)
    : cfg_(cfg),
      sched_(sched),
      clock_(clock),
      events_(events),
      trace_(trace),
      metrics_(metrics),
      nic_(nic) {
  mac_ = MacForIp(cfg_.net_ip);
}

void NetStack::Init() {
  loss_ppm_override_ = cfg_.net_link_loss_ppm;
  seed_override_ = cfg_.net_link_seed;
  {
    SpinGuard g(lock_);
    ApplyLinkFaultsLocked();
    SpinGuard n(nic_lock_);
    nic_.SetIrqCoalesce(kNetIrqCoalesceFrames, Us(kNetIrqCoalesceUs));
  }
  // Gauges snapshot token-serialized counters, like every other subsystem.
  metrics_.Gauge("net.nic.tx_frames", [this] { return nic_.tx_frames(); });
  metrics_.Gauge("net.nic.rx_frames", [this] { return nic_.rx_frames(); });
  metrics_.Gauge("net.nic.tx_bytes", [this] { return nic_.tx_bytes(); });
  metrics_.Gauge("net.nic.rx_bytes", [this] { return nic_.rx_bytes(); });
  metrics_.Gauge("net.nic.link_dropped", [this] { return nic_.link_dropped(); });
  metrics_.Gauge("net.nic.irqs_raised", [this] { return nic_.irqs_raised(); });
  metrics_.Gauge("net.nic.irqs_coalesced", [this] { return nic_.irqs_coalesced(); });
  metrics_.Gauge("net.tcp.established", [this] { return stats().tcp_established; });
  metrics_.Gauge("net.tcp.retransmits", [this] { return stats().tcp_retransmit; });
  metrics_.Gauge("net.tcp.accept_drops", [this] { return stats().tcp_accept_drop; });
  metrics_.Gauge("net.tcp.resets_tx", [this] { return stats().tcp_rst_tx; });
  metrics_.Gauge("net.tcbs", [this] { return static_cast<std::uint64_t>(tcb_count()); });
  metrics_.Gauge("net.sockets", [this] {
    return sockets_live_;  // racedet: ok (token-serialized snapshot)
  });
  metrics_.Gauge("net.udp.rx", [this] { return stats().udp_rx; });
}

// --- Output path ------------------------------------------------------------

void NetStack::TxFrame(const MacAddr& dst, std::uint16_t ethertype, NicFrame frame,
                       Cycles* burn) {
  std::memcpy(frame.data(), dst.data(), 6);
  std::memcpy(frame.data() + 6, mac_.data(), 6);
  Put16(frame.data() + 12, ethertype);
  std::size_t len = frame.size();  // PostTx takes the buffer
  Cycles local = 0;
  bool ok;
  {
    SpinGuard g(nic_lock_);  // net -> nic hierarchy edge
    ok = nic_.PostTx(std::move(frame), &local);
  }
  Charge(burn, local);
  if (ok) {
    trace_.Emit(clock_.now(), 0, TraceEvent::kNetTx, 0, len);
  }
}

void NetStack::SendArp(std::uint16_t op, const MacAddr& dst, const MacAddr& target_mac,
                       std::uint32_t target_ip, Cycles* burn) {
  NicFrame f(kEthHdrLen + kArpLen);
  std::uint8_t* a = f.data() + kEthHdrLen;
  Put16(a + 0, 1);       // htype: ethernet
  Put16(a + 2, kEthTypeIpv4);
  a[4] = 6;              // hlen
  a[5] = 4;              // plen
  Put16(a + 6, op);
  std::memcpy(a + 8, mac_.data(), 6);
  Put32(a + 14, cfg_.net_ip);
  std::memcpy(a + 18, target_mac.data(), 6);
  Put32(a + 24, target_ip);
  ++stats_.arp_tx;
  TxFrame(dst, kEthTypeArp, std::move(f), burn);
}

void NetStack::SendIp(std::uint32_t dst_ip, std::uint8_t proto, NicFrame frame, Cycles* burn) {
  Charge(burn, cfg_.cost.net_proto_per_seg);
  std::uint8_t* h = frame.data() + kEthHdrLen;
  h[0] = 0x45;  // IPv4, 20-byte header
  h[1] = 0;
  Put16(h + 2, static_cast<std::uint16_t>(frame.size() - kEthHdrLen));
  Put16(h + 4, 0);  // id (no fragmentation in this stack)
  Put16(h + 6, 0x4000);  // DF
  h[8] = 64;  // ttl
  h[9] = proto;
  Put16(h + 10, 0);
  Put32(h + 12, cfg_.net_ip);
  Put32(h + 16, dst_ip);
  Put16(h + 10, InetChecksum(h, kIpHdrLen));
  ++stats_.ip_tx;

  auto it = RD_READ(arp_cache_).find(dst_ip);
  if (it == RD_READ(arp_cache_).end()) {
    // Park the frame behind ARP resolution; re-ask every time so a lost
    // request heals (requests are idempotent).
    auto& q = RD_WRITE(arp_pending_)[dst_ip];
    if (q.size() < 64) {
      q.push_back(std::move(frame));
    } else {
      ++stats_.ip_drop;
    }
    SendArp(kArpRequest, kBroadcastMac, MacAddr{}, dst_ip, burn);
    return;
  }
  TxFrame(it->second, kEthTypeIpv4, std::move(frame), burn);
}

// --- Input path -------------------------------------------------------------

Cycles NetStack::OnNicIrq(Cycles now) {
  Cycles burn = 0;
  std::vector<NicFrame> frames;
  {
    SpinGuard g(nic_lock_);
    nic_.AckIrq();
    NicFrame f;
    while (nic_.PopRx(&f, &burn)) {
      frames.push_back(std::move(f));
    }
  }
  SpinGuard g(lock_);
  for (const NicFrame& f : frames) {
    trace_.Emit(now, 0, TraceEvent::kNetRx, 0, f.size());
    HandleFrame(f, &burn);
  }
  return burn;
}

void NetStack::HandleFrame(const NicFrame& f, Cycles* burn) {
  if (f.size() < kEthHdrLen) {
    ++stats_.ip_drop;
    return;
  }
  const std::uint8_t* p = f.data();
  // Accept our unicast MAC and broadcast (promiscuous otherwise: drop).
  if (std::memcmp(p, mac_.data(), 6) != 0 &&
      std::memcmp(p, kBroadcastMac.data(), 6) != 0) {
    ++stats_.ip_drop;
    return;
  }
  std::uint16_t type = Get16(p + 12);
  if (type == kEthTypeArp) {
    HandleArp(p + kEthHdrLen, f.size() - kEthHdrLen, burn);
  } else if (type == kEthTypeIpv4) {
    HandleIp(p + kEthHdrLen, f.size() - kEthHdrLen, burn);
  } else {
    ++stats_.ip_drop;
  }
}

void NetStack::HandleArp(const std::uint8_t* p, std::size_t len, Cycles* burn) {
  if (len < kArpLen) {
    return;
  }
  ++stats_.arp_rx;
  std::uint16_t op = Get16(p + 6);
  MacAddr sha;
  std::memcpy(sha.data(), p + 8, 6);
  std::uint32_t spa = Get32(p + 14);
  std::uint32_t tpa = Get32(p + 24);
  // Learn the sender unconditionally (gratuitous-friendly), then send any
  // frames that were parked on this resolution.
  RD_WRITE(arp_cache_)[spa] = sha;
  auto pend = RD_WRITE(arp_pending_).find(spa);
  if (pend != RD_WRITE(arp_pending_).end()) {
    auto queue = std::move(pend->second);
    RD_WRITE(arp_pending_).erase(pend);
    for (NicFrame& frame : queue) {
      TxFrame(sha, kEthTypeIpv4, std::move(frame), burn);
    }
  }
  if (op == kArpRequest && tpa == cfg_.net_ip) {
    // Request for us: reply unicast.
    SendArp(kArpReply, sha, sha, spa, burn);
  }
}

void NetStack::HandleIp(const std::uint8_t* p, std::size_t len, Cycles* burn) {
  Charge(burn, cfg_.cost.net_proto_per_seg);
  if (len < kIpHdrLen || (p[0] >> 4) != 4 || (p[0] & 0x0f) != 5) {
    ++stats_.ip_drop;
    return;
  }
  if (InetChecksum(p, kIpHdrLen) != 0) {
    ++stats_.csum_drop;
    return;
  }
  std::uint16_t tot = Get16(p + 2);
  if (tot < kIpHdrLen || tot > len) {
    ++stats_.ip_drop;
    return;
  }
  std::uint32_t dst = Get32(p + 16);
  if (dst != cfg_.net_ip) {
    ++stats_.ip_drop;
    return;
  }
  ++stats_.ip_rx;
  std::uint32_t src = Get32(p + 12);
  const std::uint8_t* payload = p + kIpHdrLen;
  std::size_t plen = tot - kIpHdrLen;
  switch (p[9]) {
    case kIpProtoTcp:
      HandleTcp(src, payload, plen, burn);
      break;
    case kIpProtoUdp:
      HandleUdp(payload, plen, burn);
      break;
    default:
      ++stats_.ip_drop;
  }
}

// --- Ports ------------------------------------------------------------------

bool NetStack::PortBound(std::uint16_t port) const {
  return RD_READ(listeners_).count(port) != 0 || RD_READ(udp_binds_).count(port) != 0;
}

std::uint16_t NetStack::AllocEphemeralPort(std::uint32_t rip, std::uint16_t rport) {
  for (int tries = 0; tries < 32768; ++tries) {
    std::uint16_t port = static_cast<std::uint16_t>(RD_READ(next_ephemeral_));
    RD_WRITE(next_ephemeral_) = RD_READ(next_ephemeral_) + 1;
    if (RD_READ(next_ephemeral_) > 65535) {
      RD_WRITE(next_ephemeral_) = 32768;
    }
    if (PortBound(port)) {
      continue;
    }
    if (RD_READ(tcbs_).count(TcbKey(rip, rport, port)) != 0) {
      continue;
    }
    return port;
  }
  return 0;
}

// --- /proc/netstat ----------------------------------------------------------

std::string NetStack::NetstatText() const {
  SpinGuard g(lock_);
  std::ostringstream os;
  os << "ip " << IpStr(cfg_.net_ip) << " mtu " << kNetMtu << "\n";
  os << "ip_tx " << stats_.ip_tx << " ip_rx " << stats_.ip_rx << " ip_drop " << stats_.ip_drop
     << " csum_drop " << stats_.csum_drop << "\n";
  os << "arp_tx " << stats_.arp_tx << " arp_rx " << stats_.arp_rx << "\n";
  os << "udp_tx " << stats_.udp_tx << " udp_rx " << stats_.udp_rx << " udp_drop "
     << stats_.udp_drop << "\n";
  os << "tcp_seg_tx " << stats_.tcp_seg_tx << " tcp_seg_rx " << stats_.tcp_seg_rx
     << " retransmit " << stats_.tcp_retransmit << "\n";
  os << "tcp_open active " << stats_.tcp_active_open << " passive " << stats_.tcp_passive_open
     << " established " << stats_.tcp_established << "\n";
  os << "tcp_rst_tx " << stats_.tcp_rst_tx << " tcp_rst_rx " << stats_.tcp_rst_rx
     << " accept_drop " << stats_.tcp_accept_drop << " ooo_drop " << stats_.tcp_ooo_drop << "\n";
  os << "nic tx " << nic_.tx_frames() << "/" << nic_.tx_bytes() << "B rx " << nic_.rx_frames()
     << "/" << nic_.rx_bytes() << "B link_drop " << nic_.link_dropped() << " tx_ring_full "
     << nic_.tx_ring_full() << " rx_ring_full " << nic_.rx_ring_full() << "\n";
  os << "nic irqs " << nic_.irqs_raised() << " coalesced " << nic_.irqs_coalesced() << "\n";
  os << "sockets " << RD_READ(sockets_live_) << " tcbs " << RD_READ(tcbs_).size() << "\n";
  for (const auto& [ip, e] : RD_READ(peer_rtt_)) {
    os << "rtt " << IpStr(ip) << " srtt_us " << e.srtt / kCyclesPerUs << " rttvar_us "
       << e.rttvar / kCyclesPerUs << " rto_us " << e.Rto() / kCyclesPerUs << " samples "
       << e.samples << "\n";
  }
  for (const auto& [key, t] : RD_READ(tcbs_)) {
    (void)key;
    os << "tcb " << IpStr(t->local_ip) << ":" << t->local_port << " " << IpStr(t->remote_ip)
       << ":" << t->remote_port << " " << TcpStateName(t->state) << " sndq " << t->sndq.size()
       << " rcvq " << t->rcvq.size() << "\n";
  }
  return os.str();
}

std::int64_t NetStack::Control(const std::string& text) {
  return RunProcCommands(text, [this](const ProcCommand& c) -> std::int64_t {
    SpinGuard g(lock_);
    if (c.verb() == "loss") {
      std::uint32_t ppm = 0;
      if (!c.Arg(1, &ppm)) {
        return kErrInval;
      }
      loss_ppm_override_ = ppm;
    } else if (c.verb() == "latency_us") {
      std::uint32_t us = 0;
      if (!c.Arg(1, &us)) {
        return kErrInval;
      }
      latency_us_override_ = us;
    } else if (c.verb() == "seed") {
      std::uint64_t seed = 0;
      if (!c.Arg(1, &seed)) {
        return kErrInval;
      }
      seed_override_ = seed;
    } else if (c.verb() == "coalesce") {
      std::uint32_t frames = 0;
      std::uint32_t us = 0;
      if (!c.Arg(1, &frames) || !c.Arg(2, &us)) {
        return kErrInval;
      }
      SpinGuard n(nic_lock_);
      nic_.SetIrqCoalesce(frames, Us(us));
      return 0;
    } else {
      return kErrInval;
    }
    ApplyLinkFaultsLocked();
    return 0;
  });
}

void NetStack::ApplyLinkFaultsLocked() {
  SpinGuard n(nic_lock_);
  nic_.SetLinkLatency(Us(latency_us_override_));
  nic_.SetLinkFaults(loss_ppm_override_, seed_override_);
}

}  // namespace vos
