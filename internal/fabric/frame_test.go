package fabric

import (
	"bytes"

	"ebslab/internal/ebs"
)

// encodeResult is the OpShardResult payload the parts make once they are
// written back to back: the result frame the coordinator receives. It panics
// on a partial over the wire cap, which no test frames this way.
func encodeResult(workerID uint64, shardID int, p *ebs.ShardPartial) []byte {
	parts, err := resultParts(workerID, shardID, p)
	if err != nil {
		panic(err)
	}
	return bytes.Join(parts, nil)
}
