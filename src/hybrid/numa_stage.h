#pragma once

#include <cstddef>
#include <span>

#include "hybrid/hier_comm.h"
#include "hybrid/round_plan.h"
#include "hybrid/sync.h"

namespace hympi {

/// Per-channel driver of the socket-staged on-node phases. Construction is
/// cheap and local; all methods are no-ops unless the hierarchy has a
/// socket level, the channel has a single leader per node (staging slices
/// are defined per whole node) and robust mode is off — so on every
/// existing configuration the channel's behaviour and virtual clocks are
/// bit-identical to the pre-socket code.
class SocketStager {
public:
    SocketStager() = default;
    explicit SocketStager(const HierComm& hc);

    /// Resolve the node-local leaf mode: Auto against the tuned
    /// SocketStaging table (keyed by THIS node's population and @p bytes —
    /// leaf staging is the one choice that may differ between nodes, so it
    /// stays out of the RoundPlan); deterministic and uniform across the
    /// ranks of one node. Pipelined resolves to the leaf mode it stages
    /// chunks with (Staged when the socket model applies, else Flat).
    SocketStaging resolve(SocketStaging mode, std::size_t bytes) const;

    /// Charge one pipelined chunk's leaf phase: the socket leaders mirror
    /// the chunk across (Staged leaf) or every remote-socket reader pulls
    /// it (Flat leaf). Unlike distribute() there is no trailing socket
    /// barrier — per-chunk socket flags provide the ordering.
    void distribute_chunk(std::size_t chunk_len, SocketStaging leaf);

    /// Consumer side of one pipelined round of @p chunk_lens chunks: wait
    /// for each chunk's node-level release flag (published by the producing
    /// primary leader as the chunk lands), run the chunk's leaf phase, and —
    /// Staged leaf — have each remote socket's leader re-publish the chunk
    /// on its socket flag so its peers read the socket-local mirror chunk
    /// by chunk. Every rank of the node except the primary leader calls
    /// this exactly once per pipelined round, and the producer signals
    /// exactly chunk_lens.size() node-level flags (the per-slot flag mirrors
    /// stay consistent because the round shape is deterministic and uniform
    /// across the node). The lengths need not be an even split: allgather
    /// passes taper as short node blocks run dry.
    void consume_chunks(NodeSync& sync, std::span<const std::size_t> chunk_lens,
                        SocketStaging leaf);

    /// Charge the on-node distribution of a @p bytes result that lives in
    /// the home-socket-resident shared buffer. Flat: every remote-socket
    /// rank pulls the result across, contended by its socket's co-readers.
    /// Staged: the socket leader mirrors it across once, then a socket
    /// barrier publishes the mirror. Home-socket ranks read locally (free)
    /// either way.
    void distribute(std::size_t bytes, SocketStaging mode);

    /// Charge the input side of the cooperative on-node reduction, whose
    /// input partitions are homed on their OWNERS' sockets (first touch).
    /// Flat: every rank pulls the other sockets' share of the inputs
    /// across while striping. Staged: each socket reduces locally first and
    /// only its leader crosses, pulling the other sockets' partials once.
    void reduce_gather(std::size_t vec_bytes, SocketStaging mode);

private:
    const HierComm* hc_ = nullptr;
    bool active_ = false;
};

}  // namespace hympi
