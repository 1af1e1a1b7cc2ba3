package fabric

import "ebslab/internal/ebs"

// encodeResult and encodeResultInto are the bare-frame reference encoders of
// the round-trip, fixture and fuzz tests: the result frame alone, without the
// command-header room a worker's payload carries in front of it
// (resultPayload, the one production caller of appendResult).

// encodeResult frames one shard result in a fresh buffer.
func encodeResult(workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	return encodeResultInto(nil, workerID, shardID, p)
}

// encodeResultInto is encodeResult into buf's memory (replaced when too
// small).
func encodeResultInto(buf []byte, workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	enc := encodeSketch(p)
	if need := resultSize(p, len(enc)); cap(buf) < need {
		buf = make([]byte, 0, need)
	}
	return appendResult(buf[:0], workerID, shardID, p, enc)
}
