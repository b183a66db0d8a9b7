/**
 * @file
 * Run-length-encoded Markov phase predictor (Sherwood et al.,
 * ISCA 2003), Section 5: predicts the next epoch's phase ID from the
 * current phase and how many consecutive epochs it has persisted.
 * The paper's configuration — 2048 entries, up to 128 phase IDs — is
 * the default.
 */

#ifndef SMTHILL_PHASE_MARKOV_PREDICTOR_HH
#define SMTHILL_PHASE_MARKOV_PREDICTOR_HH

#include <cstdint>
#include <vector>

namespace smthill
{

/** RLE Markov predictor over phase IDs. */
class MarkovPhasePredictor
{
  public:
    explicit MarkovPhasePredictor(std::size_t entries = 2048);

    /**
     * Observe that the epoch that just ended belonged to @p phase_id.
     * Must be called once per epoch, in order.
     */
    void observe(int phase_id);

    /**
     * @return the predicted phase of the next epoch, or -1 before
     * the first observation (the cold predictor must not fabricate
     * phase 0). Falls back to "same phase again" (last-value
     * prediction) when the table has no history for the current
     * (phase, run-length) state.
     */
    int predict() const;

    /** Fraction of predictions that matched the next observation. */
    double accuracy() const;

  private:
    struct Entry
    {
        std::uint32_t tag = ~std::uint32_t{0};
        int next = -1;
    };

    std::size_t indexOf(int phase, int run) const;
    std::uint32_t tagOf(int phase, int run) const;

    std::vector<Entry> table;
    int curPhase = -1;
    int runLength = 0;
    int lastPrediction = -1;
    std::uint64_t total = 0;
    std::uint64_t correct = 0;
};

} // namespace smthill

#endif // SMTHILL_PHASE_MARKOV_PREDICTOR_HH
