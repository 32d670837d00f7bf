// TCP: segment I/O, the connection state machine, go-back-N retransmission
// on an RTT-sized timer (RFC 6298, one estimator per peer), and passive-open
// (listen backlog) handling. All entered with the net lock held — from the
// IRQ input path, from socket syscalls, or from RTO timer callbacks on the
// event queue.
#include <algorithm>

#include "src/base/assert.h"
#include "src/base/status.h"
#include "src/kernel/net/net.h"

namespace vos {

namespace {
// Pseudo-header seed for the TCP checksum: src ip, dst ip, proto, tcp length.
std::uint32_t TcpPseudoSeed(std::uint32_t src, std::uint32_t dst, std::size_t tcp_len) {
  std::uint32_t seed = 0;
  seed += (src >> 16) + (src & 0xffff);
  seed += (dst >> 16) + (dst & 0xffff);
  seed += kIpProtoTcp;
  seed += static_cast<std::uint32_t>(tcp_len);
  return seed;
}
}  // namespace

// --- Segment output ---------------------------------------------------------

void NetStack::TcpSendSeg(Tcb& t, std::uint8_t flags, std::uint32_t seq, std::size_t len,
                          Cycles* burn) {
  std::size_t seg_len = kTcpHdrLen + len;
  NicFrame frame(kL4Off + seg_len);
  std::uint8_t* h = frame.data() + kL4Off;
  Put16(h + 0, t.local_port);
  Put16(h + 2, t.remote_port);
  Put32(h + 4, seq);
  Put32(h + 8, (flags & kTcpAck) != 0 ? t.rcv_nxt : 0);
  Put16(h + 12, static_cast<std::uint16_t>((5u << 12) | flags));
  std::size_t room = t.rcvq.size() < kNetRcvBuf ? kNetRcvBuf - t.rcvq.size() : 0;
  Put16(h + 14, static_cast<std::uint16_t>(std::min<std::size_t>(room, 0xffff)));
  Put16(h + 16, 0);  // checksum placeholder
  Put16(h + 18, 0);  // urgent
  if (len > 0) {
    auto from = t.sndq.begin() + static_cast<std::ptrdiff_t>(seq - t.sndq_seq);
    std::copy(from, from + static_cast<std::ptrdiff_t>(len), h + kTcpHdrLen);
    Charge(burn, static_cast<Cycles>(static_cast<double>(len) * cfg_.cost.net_copy_per_byte));
  }
  Put16(h + 16, InetChecksum(h, seg_len, TcpPseudoSeed(t.local_ip, t.remote_ip, seg_len)));
  // Karn's rule: time only a first transmission, one segment at a time.
  std::uint32_t end = seq + static_cast<std::uint32_t>(len) + ((flags & kTcpSyn) != 0 ? 1 : 0) +
                      ((flags & kTcpFin) != 0 ? 1 : 0);
  if ((flags & kTcpRst) == 0 && SeqLt(t.snd_max, end)) {
    if (seq == t.snd_max && !t.rtt_timing) {
      t.rtt_timing = true;
      t.rtt_seq = seq;
      t.rtt_sent = clock_.now();
    }
    t.snd_max = end;
  }
  ++stats_.tcp_seg_tx;
  SendIp(t.remote_ip, kIpProtoTcp, std::move(frame), burn);
}

void NetStack::TcpSendRstFor(const TcpSeg& seg, Cycles* burn) {
  // RFC 793 reset generation for a segment with no connection: echo enough
  // to convince the peer. Built by hand since there is no tcb.
  NicFrame frame(kL4Off + kTcpHdrLen);
  std::uint8_t* h = frame.data() + kL4Off;
  Put16(h + 0, seg.dport);
  Put16(h + 2, seg.sport);
  std::uint8_t flags = kTcpRst;
  if ((seg.flags & kTcpAck) != 0) {
    Put32(h + 4, seg.ack);
    Put32(h + 8, 0);
  } else {
    flags |= kTcpAck;
    Put32(h + 4, 0);
    Put32(h + 8, seg.seq + static_cast<std::uint32_t>(seg.len) +
                     ((seg.flags & kTcpSyn) != 0 ? 1 : 0) +
                     ((seg.flags & kTcpFin) != 0 ? 1 : 0));
  }
  Put16(h + 12, static_cast<std::uint16_t>((5u << 12) | flags));
  Put16(h + 14, 0);
  Put16(h + 16, 0);
  Put16(h + 18, 0);
  Put16(h + 16, InetChecksum(h, kTcpHdrLen, TcpPseudoSeed(cfg_.net_ip, seg.src_ip, kTcpHdrLen)));
  ++stats_.tcp_rst_tx;
  ++stats_.tcp_seg_tx;
  SendIp(seg.src_ip, kIpProtoTcp, std::move(frame), burn);
}

void NetStack::TcpPushSend(const std::shared_ptr<Tcb>& tcb, Cycles* burn) {
  Tcb& t = *tcb;
  std::size_t mss = kNetMtu - kIpHdrLen - kTcpHdrLen;
  for (;;) {
    std::uint32_t inflight = t.snd_nxt - t.snd_una;
    std::uint32_t wnd = std::max<std::uint32_t>(t.snd_wnd, 1);  // 1: probe a closed window
    if (inflight >= wnd) {
      return;
    }
    std::uint32_t data_end = t.sndq_seq + static_cast<std::uint32_t>(t.sndq.size());
    std::uint32_t avail = SeqLt(t.snd_nxt, data_end) ? data_end - t.snd_nxt : 0;
    if (avail == 0) {
      if (t.fin_queued && !t.fin_sent) {
        t.fin_seq = t.snd_nxt;
        t.fin_sent = true;
        ++t.snd_nxt;
        TcpSendSeg(t, kTcpFin | kTcpAck, t.fin_seq, 0, burn);
        TcpArmRto(tcb);
      }
      return;
    }
    std::size_t take = std::min<std::size_t>({avail, mss, wnd - inflight});
    TcpSendSeg(t, kTcpAck | kTcpPsh, t.snd_nxt, take, burn);
    t.snd_nxt += static_cast<std::uint32_t>(take);
    TcpArmRto(tcb);
  }
}

// --- Retransmission timer ---------------------------------------------------

void NetStack::TcpRttAck(Tcb& t, std::uint32_t ack) {
  if (t.rtt_timing && SeqLt(t.rtt_seq, ack)) {
    t.rtt_timing = false;
    t.rtt->Sample(clock_.now() - t.rtt_sent);
  }
}

void NetStack::TcpArmRto(const std::shared_ptr<Tcb>& t) {
  if (t->rto_armed) {
    return;
  }
  t->rto_armed = true;
  Cycles rto = t->rtt->Rto() << std::min<std::uint32_t>(t->retries, 10);
  std::shared_ptr<Tcb> keep = t;
  t->rto_event = events_.Schedule(clock_.now() + rto, [this, keep] {
    SpinGuard g(lock_);
    if (!keep->rto_armed) {
      return;  // lazily-cancelled or already handled
    }
    keep->rto_armed = false;
    TcpOnRto(keep);
  });
}

void NetStack::TcpDisarmRto(Tcb& t) {
  if (t.rto_armed) {
    events_.Cancel(t.rto_event);
    t.rto_armed = false;
  }
}

void NetStack::TcpOnRto(const std::shared_ptr<Tcb>& t) {
  if (t->state == TcpState::kClosed || t->state == TcpState::kTimeWait) {
    return;
  }
  if (t->snd_una == t->snd_nxt && !(t->fin_queued && !t->fin_sent)) {
    return;  // everything acked in the meantime
  }
  t->rtt_timing = false;  // Karn: the ACK may answer either transmission
  ++t->retries;
  if (t->retries > kNetMaxRetries) {
    // Peer unreachable: reset the connection locally.
    TcpKill(t, kErrIo);
    return;
  }
  ++stats_.tcp_retransmit;
  // Go-back-N: rewind to the oldest unacked byte and resend.
  t->snd_nxt = t->snd_una;
  switch (t->state) {
    case TcpState::kSynSent:
      t->snd_nxt = t->iss;
      TcpSendSeg(*t, kTcpSyn, t->iss, 0, nullptr);
      t->snd_nxt = t->iss + 1;
      TcpArmRto(t);
      break;
    case TcpState::kSynRcvd:
      TcpSendSeg(*t, kTcpSyn | kTcpAck, t->iss, 0, nullptr);
      t->snd_nxt = t->iss + 1;  // the SYN occupies iss; undo the rewind
      TcpArmRto(t);
      break;
    default:
      if (t->fin_sent && !SeqLt(t->fin_seq, t->snd_una)) {
        t->fin_sent = false;  // FIN unacked: resend it after the data
      }
      TcpPushSend(t, nullptr);
      // A bare FIN retransmit may find the window full; keep the timer alive
      // so the probe retries.
      TcpArmRto(t);
      break;
  }
}

// --- Lifecycle helpers ------------------------------------------------------

std::shared_ptr<Tcb> NetStack::NewTcb(std::uint32_t rip, std::uint16_t rport,
                                      std::uint16_t lport, TcpState state) {
  auto t = std::make_shared<Tcb>();
  t->local_ip = cfg_.net_ip;
  t->remote_ip = rip;
  t->local_port = lport;
  t->remote_port = rport;
  t->state = state;
  t->iss = RD_READ(next_iss_);
  RD_WRITE(next_iss_) = RD_READ(next_iss_) + 64000;  // deterministic ISS stepping
  t->snd_una = t->iss;
  t->snd_nxt = t->iss + 1;
  t->snd_max = t->iss;
  t->sndq_seq = t->iss + 1;
  t->rtt = &RD_WRITE(peer_rtt_)[rip];  // map nodes are stable
  RD_WRITE(tcbs_)[KeyOf(*t)] = t;
  return t;
}

void NetStack::RemoveTcb(const std::shared_ptr<Tcb>& t) {
  TcpDisarmRto(*t);
  if (t->time_wait_event != 0) {
    events_.Cancel(t->time_wait_event);
    t->time_wait_event = 0;
  }
  RD_WRITE(tcbs_).erase(KeyOf(*t));
}

void NetStack::TcpEnterTimeWait(const std::shared_ptr<Tcb>& t) {
  t->state = TcpState::kTimeWait;
  TcpDisarmRto(*t);
  std::shared_ptr<Tcb> keep = t;
  t->time_wait_event = events_.Schedule(clock_.now() + kNetTimeWait, [this, keep] {
    SpinGuard g(lock_);
    keep->time_wait_event = 0;
    if (keep->state == TcpState::kTimeWait) {
      keep->state = TcpState::kClosed;
      RemoveTcb(keep);
    }
  });
  sched_.Wakeup(&t->rcv_chan);
  sched_.Wakeup(&t->snd_chan);
}

void NetStack::TcpKill(const std::shared_ptr<Tcb>& t, std::int64_t err) {
  t->state = TcpState::kClosed;
  if (t->error == 0) {
    t->error = err;
  }
  if (t->listener != nullptr) {
    // Embryo or unaccepted connection dying: make the listener forget it.
    Socket* l = t->listener;
    t->listener = nullptr;
    auto it = std::find(l->accept_q.begin(), l->accept_q.end(), t);
    if (it != l->accept_q.end()) {
      l->accept_q.erase(it);
    } else if (l->embryos > 0) {
      --l->embryos;
    }
  }
  sched_.Wakeup(&t->rcv_chan);
  sched_.Wakeup(&t->snd_chan);
  RemoveTcb(t);
}

// --- Input ------------------------------------------------------------------

void NetStack::HandleTcp(std::uint32_t src_ip, const std::uint8_t* p, std::size_t len,
                         Cycles* burn) {
  Charge(burn, cfg_.cost.net_proto_per_seg);
  if (len < kTcpHdrLen) {
    ++stats_.ip_drop;
    return;
  }
  if (InetChecksum(p, len, TcpPseudoSeed(src_ip, cfg_.net_ip, len)) != 0) {
    ++stats_.csum_drop;
    return;
  }
  TcpSeg seg;
  seg.src_ip = src_ip;
  seg.sport = Get16(p + 0);
  seg.dport = Get16(p + 2);
  seg.seq = Get32(p + 4);
  seg.ack = Get32(p + 8);
  std::size_t doff = (Get16(p + 12) >> 12) * 4u;
  seg.flags = static_cast<std::uint8_t>(Get16(p + 12) & 0x3f);
  seg.wnd = Get16(p + 14);
  if (doff < kTcpHdrLen || doff > len) {
    ++stats_.ip_drop;
    return;
  }
  seg.data = p + doff;
  seg.len = len - doff;
  ++stats_.tcp_seg_rx;

  auto it = RD_READ(tcbs_).find(TcbKey(src_ip, seg.sport, seg.dport));
  if (it != RD_READ(tcbs_).end()) {
    TcpInput(it->second, seg, burn);
    return;
  }
  if ((seg.flags & kTcpRst) != 0) {
    return;  // no connection, nothing to reset
  }
  if ((seg.flags & kTcpSyn) != 0 && (seg.flags & kTcpAck) == 0) {
    auto lit = RD_READ(listeners_).find(seg.dport);
    if (lit != RD_READ(listeners_).end()) {
      TcpPassiveOpen(lit->second, seg, burn);
      return;
    }
  }
  TcpSendRstFor(seg, burn);
}

void NetStack::TcpPassiveOpen(Socket* listener, const TcpSeg& seg, Cycles* burn) {
  if (listener->embryos + listener->accept_q.size() >= listener->backlog) {
    // Backlog full: drop the SYN silently; the client's RTO will retry and
    // find room once accept() drains the queue.
    ++stats_.tcp_accept_drop;
    return;
  }
  std::shared_ptr<Tcb> t = NewTcb(seg.src_ip, seg.sport, seg.dport, TcpState::kSynRcvd);
  t->irs = seg.seq;
  t->rcv_nxt = seg.seq + 1;
  t->snd_wnd = seg.wnd;
  t->listener = listener;
  ++listener->embryos;
  ++stats_.tcp_passive_open;
  TcpSendSeg(*t, kTcpSyn | kTcpAck, t->iss, 0, burn);
  TcpArmRto(t);
}

void NetStack::TcpInput(const std::shared_ptr<Tcb>& t, const TcpSeg& seg, Cycles* burn) {
  if ((seg.flags & kTcpRst) != 0) {
    ++stats_.tcp_rst_rx;
    TcpKill(t, t->state == TcpState::kSynSent ? kErrNoEnt : kErrIo);
    return;
  }

  if (t->state == TcpState::kSynSent) {
    if ((seg.flags & (kTcpSyn | kTcpAck)) == (kTcpSyn | kTcpAck) && seg.ack == t->iss + 1) {
      t->snd_una = seg.ack;
      TcpRttAck(*t, seg.ack);
      t->irs = seg.seq;
      t->rcv_nxt = seg.seq + 1;
      t->snd_wnd = seg.wnd;
      t->state = TcpState::kEstablished;
      ++stats_.tcp_established;
      TcpDisarmRto(*t);
      t->retries = 0;
      TcpSendSeg(*t, kTcpAck, t->snd_nxt, 0, burn);
      sched_.Wakeup(&t->rcv_chan);  // connect() waits here
      TcpPushSend(t, burn);
    }
    return;
  }
  if (t->state == TcpState::kTimeWait) {
    // A retransmitted FIN: re-ack it.
    if ((seg.flags & kTcpFin) != 0) {
      TcpSendSeg(*t, kTcpAck, t->snd_nxt, 0, burn);
    }
    return;
  }

  // --- ACK processing (everything past SYN_SENT carries ACKs) ---
  if ((seg.flags & kTcpAck) != 0) {
    std::uint32_t ack = seg.ack;
    if (SeqLt(t->snd_una, ack) && SeqLe(ack, t->snd_nxt)) {
      t->snd_una = ack;
      TcpRttAck(*t, ack);
      t->snd_wnd = seg.wnd;
      t->retries = 0;
      if (SeqLt(t->sndq_seq, ack)) {
        std::size_t popn =
            std::min<std::size_t>(ack - t->sndq_seq, t->sndq.size());
        t->sndq.erase(t->sndq.begin(), t->sndq.begin() + static_cast<std::ptrdiff_t>(popn));
        t->sndq_seq += static_cast<std::uint32_t>(popn);
      }
      TcpDisarmRto(*t);
      if (t->snd_una != t->snd_nxt) {
        TcpArmRto(t);
      }
      sched_.Wakeup(&t->snd_chan);  // send() blocked on a full sndbuf

      if (t->state == TcpState::kSynRcvd && SeqLe(t->iss + 1, ack)) {
        t->state = TcpState::kEstablished;
        ++stats_.tcp_established;
        Socket* l = t->listener;
        if (l != nullptr) {
          --l->embryos;
          l->accept_q.push_back(t);
          sched_.Wakeup(&l->accept_chan);
        } else {
          // Listener died mid-handshake: nobody will ever accept this.
          TcpSendRstFor(seg, burn);
          TcpKill(t, kErrIo);
          return;
        }
      }
      if (t->fin_sent && SeqLt(t->fin_seq, t->snd_una)) {
        // Our FIN is acked.
        if (t->state == TcpState::kFinWait1) {
          t->state = TcpState::kFinWait2;
        } else if (t->state == TcpState::kClosing) {
          TcpEnterTimeWait(t);
        } else if (t->state == TcpState::kLastAck) {
          t->state = TcpState::kClosed;
          sched_.Wakeup(&t->rcv_chan);
          sched_.Wakeup(&t->snd_chan);
          RemoveTcb(t);
          return;
        }
      }
    } else {
      t->snd_wnd = seg.wnd;  // window update on a duplicate ACK
    }
  }

  // --- Payload (in-order only; everything else relies on go-back-N) ---
  if (seg.len > 0) {
    if (seg.seq == t->rcv_nxt && !t->rcv_shutdown &&
        t->rcvq.size() + seg.len <= kNetRcvBuf && !t->peer_fin) {
      t->rcvq.insert(t->rcvq.end(), seg.data, seg.data + seg.len);
      t->rcv_nxt += static_cast<std::uint32_t>(seg.len);
      Charge(burn,
             static_cast<Cycles>(static_cast<double>(seg.len) * cfg_.cost.net_copy_per_byte));
      sched_.Wakeup(&t->rcv_chan);
    } else if (seg.seq == t->rcv_nxt && t->rcv_shutdown) {
      // Read side shut down: sequence the bytes but discard them.
      t->rcv_nxt += static_cast<std::uint32_t>(seg.len);
    } else {
      ++stats_.tcp_ooo_drop;
    }
  }

  // --- FIN (only when it arrives in order) ---
  if ((seg.flags & kTcpFin) != 0 && !t->peer_fin) {
    std::uint32_t fin_seq = seg.seq + static_cast<std::uint32_t>(seg.len);
    if (fin_seq == t->rcv_nxt) {
      ++t->rcv_nxt;
      t->peer_fin = true;
      sched_.Wakeup(&t->rcv_chan);  // recv() returns 0 at EOF
      switch (t->state) {
        case TcpState::kEstablished:
          t->state = TcpState::kCloseWait;
          break;
        case TcpState::kFinWait1:
          // Our FIN not yet acked: simultaneous close.
          t->state = TcpState::kClosing;
          break;
        case TcpState::kFinWait2:
          TcpSendSeg(*t, kTcpAck, t->snd_nxt, 0, burn);
          TcpEnterTimeWait(t);
          return;
        default:
          break;
      }
    }
  }

  if (seg.len > 0 || (seg.flags & kTcpFin) != 0) {
    // Ack data (fresh or duplicate — the cumulative ack tells the sender
    // where we really are).
    TcpSendSeg(*t, kTcpAck, t->snd_nxt, 0, burn);
  }
  // New window/ack state may unblock queued data or a pending FIN.
  if (t->state != TcpState::kClosed) {
    TcpPushSend(t, burn);
  }
}

// shutdown(WR)/close: queue our FIN after any buffered data.
void NetStack::CloseTcbHalf(const std::shared_ptr<Tcb>& t, Cycles* burn) {
  if (t->fin_queued || t->state == TcpState::kClosed || t->state == TcpState::kTimeWait) {
    return;
  }
  switch (t->state) {
    case TcpState::kSynSent:
      // Nothing ever got through; just drop the attempt.
      TcpKill(t, kErrIo);
      return;
    case TcpState::kSynRcvd:
    case TcpState::kEstablished:
      t->state = TcpState::kFinWait1;
      break;
    case TcpState::kCloseWait:
      t->state = TcpState::kLastAck;
      break;
    default:
      return;  // already closing on our side
  }
  t->fin_queued = true;
  TcpPushSend(t, burn);  // sends the FIN now if sndq is drained
}

}  // namespace vos
