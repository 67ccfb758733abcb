/**
 * @file
 * The batch-fold oracle of the batch and serving tests: a batch
 * priced the plainest way, one Engine::runNetwork pass per image,
 * accumulated in image order. The grid driver's sweep fold and the
 * serving cost curve must both reproduce it bit for bit.
 */

#pragma once

#include "dnn/network.h"
#include "sim/engine.h"
#include "sim/layer_result.h"
#include "util/check.h"

namespace pra {
namespace sim {

/**
 * Price a batch of @p batch images (must be >= 1) on @p engine: one
 * runNetwork per image on source.withImage(b), accumulated
 * (accumulateBatchImage) with batchImages stamped on every layer.
 * Image 0 is the historical stream, so a batch of 1 is
 * byte-identical to runNetwork() apart from batchImages.
 */
inline NetworkResult
runBatch(const Engine &engine, const dnn::Network &network,
         const WorkloadSource &source, const AccelConfig &accel,
         const SampleSpec &sample, const util::InnerExecutor &exec,
         int batch)
{
    PRA_CHECK(batch >= 1, "runBatch: batch size must be >= 1");
    NetworkResult result = engine.runNetwork(
        network, source.withImage(0), accel, sample, exec);
    for (int b = 1; b < batch; b++)
        accumulateBatchImage(result,
                             engine.runNetwork(network, source.withImage(b),
                                               accel, sample, exec));
    for (auto &layer : result.layers)
        layer.batchImages = batch;
    return result;
}

} // namespace sim
} // namespace pra
