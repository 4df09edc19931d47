// Wire protocol between the RADOS client and the simulated OSDs.
//
// Message bodies ride the network layer's shared_ptr<void>; payload byte
// counts charged to the fabric are header + data length. Bodies come from
// make_op(), whose recycled blocks make a steady op stream allocation-free.
// A body's data is page references (common/page.hpp): every replica's
// message, the journal records and the stores share the client's one copy
// of a write, and a read reply references the serving store's pages. A
// backfill_push is one leg of a recovery move (Cluster::push): its bytes
// size the wire and service charges, and the move itself decides what
// lands, so the message carries no recovery logic beyond its arrival hook.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/node_pool.hpp"
#include "common/page.hpp"
#include "common/status.hpp"
#include "ec/reed_solomon.hpp"
#include "rados/object_store.hpp"
#include "sim/event_pool.hpp"

namespace dk::rados {

/// Fixed per-message protocol header size (msgr envelope + op header),
/// approximating Ceph's MOSDOp framing.
constexpr std::uint64_t kMsgHeaderBytes = 192;

enum class OpType : std::uint8_t {
  client_write,      // client -> primary: persist, fan out sub_writes
  sub_write,         // requester -> OSD: persist one replica or shard, ack
  write_ack,         // OSD -> requester (primary or client): write persisted
  read,              // requester -> OSD: verify and read a replica or shard
  read_reply,        // OSD -> requester: data, or Errc::corrupted
  ec_primary_write,  // client -> primary: encode at primary, fan out shards
  ec_primary_read,   // client -> primary: gather shards, decode, reply
  backfill_push,     // osd -> osd: recovery leg (background service class)
};

struct OpBody {
  OpType type;
  std::uint64_t op_id = 0;       // requester-scoped correlation id
  ObjectKey key;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
  Payload data;  // laid out for `offset`
  int target_osd = -1;           // OSD index on the destination node
  int reply_osd = -1;            // OSD index to route the reply back to (-1 = client)
  // Fan-out bookkeeping: replica OSDs (primary-copy) or shard OSDs in shard
  // order (EC primary paths; entry 0 is the primary itself).
  std::vector<int> replicas;
  // EC primary ops: the pool's codec (Cluster::create_ec_pool builds one
  // per pool), so the primary encodes and assembles as the client does.
  const ec::ReedSolomon* codec = nullptr;
  // Recovery legs (backfill_push): true once the target has served the
  // push, false when a crashed endpoint or frame loss lost it.
  sim::UniqueFn<void(bool arrived)> on_done;
  // Integrity mode: per-4kB-block CRC-32C of `data`. On writes the client
  // attaches them so the OSD can store what the client computed; on read
  // replies the OSD attaches the stored checksums so the client can verify
  // on receive. Inline up to one 32 kB payload's worth.
  BlockCrcs checksums;
  // Integrity mode: replies carry Errc::corrupted (with empty data) when
  // the serving OSD's checksum verification failed.
  Errc error = Errc::ok;
};

/// A new message body with its control block, from a recycled block.
/// `args` initialize OpBody's leading members in order (type, op_id, key,
/// offset, length, ...).
template <typename... Args>
std::shared_ptr<OpBody> make_op(Args&&... args) {
  return std::allocate_shared<OpBody>(RecyclingAllocator<OpBody>(),
                                      std::forward<Args>(args)...);
}

inline std::uint64_t op_wire_bytes(const OpBody& body) {
  return kMsgHeaderBytes + body.data.size();
}

}  // namespace dk::rados
