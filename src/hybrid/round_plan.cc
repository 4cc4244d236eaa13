#include "hybrid/round_plan.h"

#include <algorithm>

#include "hybrid/hier_comm.h"
#include "tuning/decision.h"

namespace hympi {

const char* bridge_algo_name(BridgeAlgo a) {
    switch (a) {
        case BridgeAlgo::Auto: return "auto";
        case BridgeAlgo::Allgatherv: return "vendor_allgatherv";
        case BridgeAlgo::Bcast: return "bcast";
        case BridgeAlgo::Pipelined: return "pipelined_ring";
        case BridgeAlgo::BruckV: return "bruck_v";
        case BridgeAlgo::NeighborExchange: return "neighbor_exchange";
        case BridgeAlgo::LocBruck: return "loc_bruck";
    }
    return "?";
}

namespace {

int largest_node(const HierComm& hc) {
    int m = 0;
    for (int n = 0; n < hc.num_nodes(); ++n) m = std::max(m, hc.node_size(n));
    return m;
}

}  // namespace

PlanInputs::PlanInputs(const HierComm& hc)
    : num_nodes(hc.num_nodes()),
      max_node_size(largest_node(hc)),
      sockets_per_node(hc.world().ctx().cluster->sockets_per_node()),
      leaders_per_node(hc.leaders_per_node()),
      robust(hc.world().ctx().robust_cfg != nullptr &&
             hc.world().ctx().robust_cfg->enabled),
      table(hc.world().ctx().tuned) {}

std::string RoundPlan::describe() const {
    return std::string(pipelined ? "pipelined" : "whole") +
           " chunk=" + std::to_string(chunk_bytes) + " bridge=" +
           bridge_algo_name(bridge) + " seg=" + std::to_string(segment_bytes);
}

std::vector<std::size_t> RoundPlan::even_chunks(std::size_t bytes,
                                                std::size_t chunk) {
    std::vector<std::size_t> lens((bytes + chunk - 1) / chunk);
    for (std::size_t c = 0; c < lens.size(); ++c) {
        lens[c] = std::min(chunk, bytes - c * chunk);
    }
    return lens;
}

RoundPlan plan_round(const PlanInputs& in, const RoundRequest& rq) {
    RoundPlan p;
    std::size_t seg = rq.segment_bytes;
    // BridgeAlgo::Auto through the tuned tables; may set seg.
    auto tuned_exchange = [&]() {
        if (in.table == nullptr) return BridgeAlgo::Allgatherv;
        // LocBruck first: all of a node's leaders enter the combined
        // exchange or none does, and a leader whose own slices are empty
        // still takes part.
        if (in.leaders_per_node > 1 && rq.max_node_block > 0) {
            const auto lc =
                in.table->lookup(tuning::Op::LocBruck, tuning::Shape::Net,
                                 in.num_nodes, rq.max_node_block);
            if (lc.has_value() && lc->algo == tuning::algo::kLbCombined) {
                return BridgeAlgo::LocBruck;
            }
        }
        // A 0-byte exchange has no position on the log-rounded size axis.
        if (rq.max_bridge_count == 0) return BridgeAlgo::Allgatherv;
        const auto c = in.table->lookup(tuning::Op::BridgeExchange,
                                        tuning::Shape::Net, in.num_nodes,
                                        rq.max_bridge_count);
        switch (c.has_value() ? c->algo : tuning::algo::kBrVendorAllgatherv) {
            case tuning::algo::kBrPipelined:
                if (seg == 0) seg = c->segment_bytes;
                return BridgeAlgo::Pipelined;
            case tuning::algo::kBrBruckV: return BridgeAlgo::BruckV;
            case tuning::algo::kBrNeighborExchange:
                return BridgeAlgo::NeighborExchange;
            default: return BridgeAlgo::Allgatherv;
        }
    };
    if (rq.exchange) {
        p.bridge = *rq.exchange == BridgeAlgo::Auto ? tuned_exchange()
                                                    : *rq.exchange;
        if (p.bridge == BridgeAlgo::NeighborExchange &&
            (in.num_nodes % 2 != 0 || in.leaders_per_node != 1)) {
            p.bridge = BridgeAlgo::Allgatherv;
        }
        // At most 64 segments per block, as in bcast_pipelined_chain.
        if (p.bridge == BridgeAlgo::Pipelined) {
            p.segment_bytes = detail::clamp_segment(
                seg, kPipelineSegmentBytes, (rq.max_bridge_count + 63) / 64,
                rq.max_bridge_count);
        }
    }
    if (rq.bytes == 0 || in.num_nodes < 2 || in.leaders_per_node != 1) {
        return p;
    }
    std::optional<tuning::Choice> tuned;
    if (in.table != nullptr) {
        tuned = in.table->lookup(tuning::Op::ChunkSize, tuning::Shape::Shm,
                                 in.max_node_size, rq.bytes);
    }
    if (rq.staging == SocketStaging::Auto) {
        const bool socket_model = in.sockets_per_node >= 2 &&
                                  in.max_node_size >= 2 && !in.robust;
        if (!socket_model || !tuned.has_value() ||
            tuned->algo != tuning::algo::kCsPipelined) {
            return p;
        }
    } else if (rq.staging != SocketStaging::Pipelined) {
        return p;
    }
    std::size_t chunk = rq.chunk_bytes;
    if (chunk == 0 && tuned.has_value()) chunk = tuned->segment_bytes;
    p.pipelined = true;
    p.chunk_bytes = detail::clamp_segment(chunk, kDefaultChunkBytes, 64, rq.bytes);
    return p;
}

}  // namespace hympi
