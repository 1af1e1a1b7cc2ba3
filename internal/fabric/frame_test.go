package fabric

import (
	"bytes"

	"ebslab/internal/ebs"
)

// joinedPayload is the OpShardResult payload the parts make once they are
// written back to back: what the coordinator receives. It panics on a
// partial over the wire cap, which no test frames this way.
func joinedPayload(workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	parts, err := resultParts(workerID, shardID, p)
	if err != nil {
		panic(err)
	}
	return bytes.Join(parts, nil)
}

// encodeResult is the bare result frame of the round-trip, fixture and fuzz
// tests: the payload without the command-header room in front of it.
func encodeResult(workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	return joinedPayload(workerID, shardID, p)[commandHeaderLen:]
}
