// Socket layer: the blocking/nonblocking operations the syscalls call. Every
// op takes the net lock; blocking paths wait through Sched::Block on
// channels inside the tcb or socket (releasing the lock while parked), so a
// kill ends a wait with kErrIntr and nonblock mode with kErrAgain.
#include <algorithm>
#include <cstring>

#include "src/base/status.h"
#include "src/kernel/net/net.h"
#include "src/kernel/task.h"

namespace vos {

std::shared_ptr<Socket> NetStack::CreateSocket(Socket::Type type) {
  SpinGuard g(lock_);
  ++RD_WRITE(sockets_live_);
  return std::make_shared<Socket>(type);
}

std::int64_t NetStack::Bind(Socket& s, std::uint16_t port) {
  SpinGuard g(lock_);
  if (port == 0 || s.bound) {
    return kErrInval;
  }
  if (PortBound(port)) {
    return kErrExist;
  }
  s.bound = true;
  s.local_port = port;
  if (s.type == Socket::Type::kUdp) {
    RD_WRITE(udp_binds_)[port] = &s;
  }
  return 0;
}

std::int64_t NetStack::Listen(Socket& s, std::uint32_t backlog) {
  SpinGuard g(lock_);
  if (s.type != Socket::Type::kTcp || !s.bound || s.tcb != nullptr) {
    return kErrInval;
  }
  if (s.listening) {
    s.backlog = std::min(std::max<std::uint32_t>(backlog, 1), kNetSoMaxConn);
    return 0;
  }
  s.listening = true;
  s.backlog = std::min(std::max<std::uint32_t>(backlog, 1), kNetSoMaxConn);
  RD_WRITE(listeners_)[s.local_port] = &s;
  return 0;
}

std::int64_t NetStack::Accept(Task* cur, Socket& s, bool nonblock, std::shared_ptr<Socket>* out,
                              std::uint32_t* peer_ip, std::uint16_t* peer_port, Cycles* burn) {
  Charge(burn, cfg_.cost.sock_op);
  SpinGuard g(lock_);
  if (!s.listening) {
    return kErrInval;
  }
  while (s.accept_q.empty()) {
    std::int64_t r = sched_.Block(cur, &s.accept_chan, &lock_, nonblock);
    if (r < 0) {
      return r;
    }
    if (!s.listening) {
      return kErrInval;  // the listener was closed under us
    }
  }
  std::shared_ptr<Tcb> t = s.accept_q.front();
  s.accept_q.pop_front();
  t->listener = nullptr;
  auto ns = std::make_shared<Socket>(Socket::Type::kTcp);
  ns->bound = true;
  ns->local_port = t->local_port;
  ns->tcb = t;
  t->sock_attached = true;
  ++RD_WRITE(sockets_live_);
  *out = std::move(ns);
  if (peer_ip != nullptr) {
    *peer_ip = t->remote_ip;
  }
  if (peer_port != nullptr) {
    *peer_port = t->remote_port;
  }
  return 0;
}

std::int64_t NetStack::Connect(Task* cur, Socket& s, std::uint32_t ip, std::uint16_t port,
                               bool nonblock, Cycles* burn) {
  Charge(burn, cfg_.cost.sock_op);
  SpinGuard g(lock_);
  if (port == 0) {
    return kErrInval;
  }
  if (s.type == Socket::Type::kUdp) {
    // Datagram connect just fixes the default destination.
    s.udp_connected = true;
    s.udp_peer_ip = ip;
    s.udp_peer_port = port;
    if (!s.bound) {
      std::uint16_t lp = AllocEphemeralPort(ip, port);
      if (lp == 0) {
        return kErrAgain;
      }
      s.bound = true;
      s.local_port = lp;
      RD_WRITE(udp_binds_)[lp] = &s;
    }
    return 0;
  }
  if (s.listening) {
    return kErrInval;
  }
  if (s.tcb == nullptr) {
    // First call: allocate the endpoint and fire the SYN.
    std::uint16_t lp = s.bound ? s.local_port : AllocEphemeralPort(ip, port);
    if (lp == 0) {
      return kErrAgain;
    }
    if (RD_READ(tcbs_).count(TcbKey(ip, port, lp)) != 0) {
      return kErrExist;
    }
    std::shared_ptr<Tcb> t = NewTcb(ip, port, lp, TcpState::kSynSent);
    t->sock_attached = true;
    s.bound = true;
    s.local_port = lp;
    s.tcb = t;
    ++stats_.tcp_active_open;
    TcpSendSeg(*t, kTcpSyn, t->iss, 0, burn);
    TcpArmRto(t);
  }
  std::shared_ptr<Tcb> t = s.tcb;
  while (t->state == TcpState::kSynSent) {
    // On a kill or in nonblock mode the handshake continues in the
    // background; retry connect() to harvest the result.
    std::int64_t r = sched_.Block(cur, &t->rcv_chan, &lock_, nonblock);
    if (r < 0) {
      return r;
    }
  }
  if (t->state == TcpState::kClosed && t->error != 0) {
    return t->error;
  }
  return 0;
}

std::int64_t NetStack::Send(Task* cur, Socket& s, const std::uint8_t* buf, std::size_t n,
                            bool nonblock, Cycles* burn) {
  Charge(burn, cfg_.cost.sock_op);
  SpinGuard g(lock_);
  if (s.type == Socket::Type::kUdp) {
    if (!s.udp_connected) {
      return kErrInval;
    }
    std::size_t mtu_payload = kNetMtu - kIpHdrLen - kUdpHdrLen;
    std::size_t take = std::min(n, mtu_payload);
    NicFrame frame(kL4Off + kUdpHdrLen + take);
    std::uint8_t* u = frame.data() + kL4Off;
    Put16(u + 0, s.local_port);
    Put16(u + 2, s.udp_peer_port);
    Put16(u + 4, static_cast<std::uint16_t>(kUdpHdrLen + take));
    Put16(u + 6, 0);  // checksum optional in IPv4 UDP
    std::memcpy(u + kUdpHdrLen, buf, take);
    ++stats_.udp_tx;
    Charge(burn, static_cast<Cycles>(static_cast<double>(take) * cfg_.cost.net_copy_per_byte));
    SendIp(s.udp_peer_ip, kIpProtoUdp, std::move(frame), burn);
    return static_cast<std::int64_t>(take);
  }

  std::shared_ptr<Tcb> t = s.tcb;
  if (t == nullptr) {
    return kErrInval;  // never connected
  }
  std::size_t done = 0;
  while (done < n) {
    if (t->state == TcpState::kClosed) {
      return done > 0 ? static_cast<std::int64_t>(done)
                      : (t->error != 0 ? t->error : kErrPipe);
    }
    if (t->fin_queued || t->state == TcpState::kFinWait1 || t->state == TcpState::kFinWait2 ||
        t->state == TcpState::kLastAck || t->state == TcpState::kClosing ||
        t->state == TcpState::kTimeWait) {
      // We already shut down our write side.
      return done > 0 ? static_cast<std::int64_t>(done) : kErrPipe;
    }
    bool connecting = t->state == TcpState::kSynSent;
    if (connecting || t->sndq.size() >= kNetSndBuf) {
      // Wait for connect() to finish, or for the send buffer to drain.
      std::int64_t r =
          sched_.Block(cur, connecting ? &t->rcv_chan : &t->snd_chan, &lock_, nonblock);
      if (r < 0) {
        return done > 0 ? static_cast<std::int64_t>(done) : r;
      }
      continue;
    }
    std::size_t room = kNetSndBuf - t->sndq.size();
    std::size_t take = std::min(room, n - done);
    t->sndq.insert(t->sndq.end(), buf + done, buf + done + take);
    done += take;
    Charge(burn, static_cast<Cycles>(static_cast<double>(take) * cfg_.cost.net_copy_per_byte));
    TcpPushSend(t, burn);
  }
  return static_cast<std::int64_t>(done);
}

std::int64_t NetStack::Recv(Task* cur, Socket& s, std::uint8_t* buf, std::size_t n, bool nonblock,
                            Cycles* burn) {
  Charge(burn, cfg_.cost.sock_op);
  SpinGuard g(lock_);
  if (s.type == Socket::Type::kUdp) {
    while (s.udpq.empty()) {
      std::int64_t r = sched_.Block(cur, &s.udp_chan, &lock_, nonblock);
      if (r < 0) {
        return r;
      }
    }
    std::vector<std::uint8_t> d = std::move(s.udpq.front());
    s.udpq.pop_front();
    s.udpq_bytes -= d.size();
    std::size_t take = std::min(n, d.size());
    std::memcpy(buf, d.data(), take);
    Charge(burn, static_cast<Cycles>(static_cast<double>(take) * cfg_.cost.net_copy_per_byte));
    return static_cast<std::int64_t>(take);  // excess datagram bytes are dropped
  }

  std::shared_ptr<Tcb> t = s.tcb;
  if (t == nullptr) {
    return kErrInval;
  }
  while (t->rcvq.empty()) {
    if (t->rcv_shutdown || t->peer_fin) {
      return 0;  // orderly EOF
    }
    if (t->state == TcpState::kClosed) {
      return t->error != 0 ? t->error : 0;
    }
    std::int64_t r = sched_.Block(cur, &t->rcv_chan, &lock_, nonblock);
    if (r < 0) {
      return r;
    }
  }
  std::size_t take = std::min(n, t->rcvq.size());
  std::copy(t->rcvq.begin(), t->rcvq.begin() + static_cast<std::ptrdiff_t>(take), buf);
  t->rcvq.erase(t->rcvq.begin(), t->rcvq.begin() + static_cast<std::ptrdiff_t>(take));
  Charge(burn, static_cast<Cycles>(static_cast<double>(take) * cfg_.cost.net_copy_per_byte));
  return static_cast<std::int64_t>(take);
}

std::int64_t NetStack::Shutdown(Task* cur, Socket& s, int how, Cycles* burn) {
  (void)cur;
  Charge(burn, cfg_.cost.sock_op);
  SpinGuard g(lock_);
  if (how < 0 || how > 2) {
    return kErrInval;
  }
  if (s.listening) {
    // shutdown() on a listener stops accepting: parked accept() callers wake
    // and observe !listening -> kErrInval. Embryos/queued connections are torn
    // down by the eventual close().
    RD_WRITE(listeners_).erase(s.local_port);
    s.listening = false;
    sched_.Wakeup(&s.accept_chan);
    return 0;
  }
  if (s.type == Socket::Type::kUdp || s.tcb == nullptr) {
    return s.type == Socket::Type::kUdp ? 0 : std::int64_t{kErrInval};
  }
  std::shared_ptr<Tcb> t = s.tcb;
  if (how == 0 || how == 2) {
    t->rcv_shutdown = true;
    t->rcvq.clear();
    sched_.Wakeup(&t->rcv_chan);
  }
  if (how == 1 || how == 2) {
    CloseTcbHalf(t, burn);
  }
  return 0;
}

void NetStack::CloseSocket(const std::shared_ptr<Socket>& s) {
  SpinGuard g(lock_);
  --RD_WRITE(sockets_live_);
  if (s->type == Socket::Type::kUdp) {
    if (s->bound) {
      RD_WRITE(udp_binds_).erase(s->local_port);
    }
    return;
  }
  if (s->tcb == nullptr) {
    // A listener (current or shutdown()-stopped) or a never-connected socket.
    // Reset every connection this listener still owns — both established
    // ones waiting in accept_q and half-open embryos in the tcb table — so no
    // tcb is left pointing at the freed Socket.
    if (s->listening) {
      RD_WRITE(listeners_).erase(s->local_port);
      s->listening = false;
    }
    std::vector<std::shared_ptr<Tcb>> orphans;
    for (const auto& [key, t] : RD_READ(tcbs_)) {
      (void)key;
      if (t->listener == s.get()) {
        orphans.push_back(t);
      }
    }
    for (const auto& t : orphans) {
      ++stats_.tcp_rst_tx;
      TcpSendSeg(*t, kTcpRst | kTcpAck, t->snd_nxt, 0, nullptr);
      TcpKill(t, kErrIo);
    }
    sched_.Wakeup(&s->accept_chan);
    return;
  }
  std::shared_ptr<Tcb> t = s->tcb;
  t->sock_attached = false;
  // POSIX close: no more reads, send FIN after buffered data. The tcb
  // lingers as an orphan in the table until its handshake finishes.
  t->rcv_shutdown = true;
  t->rcvq.clear();
  CloseTcbHalf(t, nullptr);
}

}  // namespace vos
