/**
 * @file
 * Window/pallet/synapse-set tiling of a priced layer — convolutional
 * or lowered fully-connected (paper Sections IV-A1 and V-A3).
 *
 * Execution is organized as:
 *   for each pass (group of 256 filters)
 *     for each pallet (group of 16 adjacent windows)
 *       for each synapse set (filter position (fy, fx) x channel brick)
 *         process one neuron brick per window against 16 synapse
 *         bricks (one per filter lane)
 *
 * The classes here enumerate that structure and gather the neuron
 * bricks each step consumes, including zero padding at the borders.
 *
 * A fully-connected layer arrives here in its canonical lowered form
 * (1 x 1 x I input, 1 x 1 filters — see dnn/layer_spec.h): it tiles
 * to exactly one window in one partial pallet, with ceil(I / 16)
 * synapse sets, and needs no special casing anywhere below.
 */

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dnn/layer_spec.h"
#include "dnn/tensor.h"
#include "sim/accel_config.h"

namespace pra {
namespace sim {

/** One synapse-set coordinate: a filter position and channel brick. */
struct SynapseSetCoord
{
    int fy = 0;      ///< Filter row.
    int fx = 0;      ///< Filter column.
    int brickI = 0;  ///< First channel of the brick (multiple of 16).

    bool operator==(const SynapseSetCoord &other) const = default;
};

/** A window position in the output space. */
struct WindowCoord
{
    int x = 0;
    int y = 0;

    bool operator==(const WindowCoord &other) const = default;
};

/** An (x, y) position in a layer's input plane. */
struct InputColumn
{
    int x = 0;
    int y = 0;
};

/**
 * Enumerates pallets and synapse sets for one layer under a given
 * machine configuration.
 */
class LayerTiling
{
  public:
    LayerTiling(const dnn::LayerSpec &layer,
                const AccelConfig &config);

    const dnn::LayerSpec &layer() const { return layer_; }
    const AccelConfig &config() const { return config_; }

    /** Total pallets: ceil(windows / windowsPerPallet). */
    int64_t numPallets() const { return numPallets_; }

    /**
     * The pallet count of @p layer under @p config without building
     * a full tiling — the single definition the memory model and the
     * batch scheduler share with the execution loop above: a batch
     * of B images runs this whole pass/pallet/set structure B times
     * (filters stay loaded across images; see
     * sim/memory/memory_model.h for the traffic consequences).
     */
    static int64_t palletCount(const dnn::LayerSpec &layer,
                               const AccelConfig &config);

    /** Synapse sets per window: Fx * Fy * ceil(I / brick). */
    int64_t numSynapseSets() const { return numSets_; }

    /** Passes over the windows (filter groups of 256). */
    int passes() const { return passes_; }

    /**
     * Window coordinate of window index @p w (row-major over the
     * output plane). w must be within [0, windows).
     */
    WindowCoord windowCoord(int64_t w) const;

    /**
     * Number of real windows in pallet @p p (the last pallet of a
     * layer may be partial).
     */
    int windowsInPallet(int64_t p) const;

    /** Window index of column @p c of pallet @p p; -1 when inactive. */
    int64_t windowIndex(int64_t p, int column) const;

    /**
     * Replace @p out with the window coordinates of pallet @p p's
     * active columns, in column order: the contiguous prefix of
     * windowsInPallet(p) columns (only a layer's last pallet is
     * partial).
     */
    void palletColumns(int64_t p, std::vector<WindowCoord> &out) const;

    /** Synapse-set coordinate of set index @p s (fy, fx, brick order). */
    SynapseSetCoord setCoord(int64_t s) const;

    /**
     * The input position whose channels s.brickI onward window @p w
     * reads at synapse set @p s: (w.x * S - pad + s.fx,
     * w.y * S - pad + s.fy). Empty when it falls in the zero padding
     * around the input plane. Every brick gather, NM address and
     * plane lookup resolves its brick through this one rule.
     */
    std::optional<InputColumn>
    inputColumn(const WindowCoord &w, const SynapseSetCoord &s) const
    {
        const int x = w.x * layer_.stride - layer_.pad + s.fx;
        const int y = w.y * layer_.stride - layer_.pad + s.fy;
        if (x < 0 || x >= layer_.inputX || y < 0 || y >= layer_.inputY)
            return std::nullopt;
        return InputColumn{x, y};
    }

    /**
     * Gather the 16 neurons of the brick consumed by window @p w at
     * synapse set @p s: the input brick at inputColumn(w, s), channels
     * from s.brickI. Padding positions and channels beyond I read 0.
     */
    std::array<uint16_t, dnn::kBrickSize>
    gatherBrick(const dnn::NeuronTensor &input, const WindowCoord &w,
                const SynapseSetCoord &s) const;

    /**
     * Zero-copy view of the same brick: the tensor's channel-major
     * layout keeps a brick's lanes contiguous, so the view aliases
     * @p input directly. Padding positions yield an empty span and a
     * partial channel brick a short one — both equivalent to
     * gatherBrick()'s zero-padded lanes for scheduling and popcount
     * purposes (zero lanes contribute nothing to either).
     */
    std::span<const uint16_t>
    gatherBrickView(const dnn::NeuronTensor &input, const WindowCoord &w,
                    const SynapseSetCoord &s) const;

    /**
     * First flat NM address (in neurons) of the brick, or -1 when the
     * whole brick lies in padding (no NM access needed). Inline: the
     * NM row count asks it for every brick of every pallet step.
     */
    int64_t
    brickNmAddress(const WindowCoord &w, const SynapseSetCoord &s) const
    {
        const std::optional<InputColumn> at = inputColumn(w, s);
        if (!at)
            return -1;
        // NM stores neurons brick-interleaved: consecutive x positions
        // of the same channel brick are adjacent, so a unit-stride
        // pallet's bricks fall into one or two rows (Section V-A4).
        const int64_t brick_index =
            (static_cast<int64_t>(s.brickI / config_.neuronLanes) *
                 layer_.inputY +
             at->y) *
                layer_.inputX +
            at->x;
        return brick_index * config_.neuronLanes;
    }

  private:
    dnn::LayerSpec layer_;
    AccelConfig config_;
    int64_t numPallets_ = 0;
    int64_t numSets_ = 0;
    int passes_ = 1;
    int channelBricks_ = 0;
};

} // namespace sim
} // namespace pra

