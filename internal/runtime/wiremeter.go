package runtime

import (
	"encoding/json"
	"fmt"
	"io"

	"fedgpo/internal/runtime/wire"
)

// WireBytesPerCell measures what one cell costs on the wire for a
// concrete request/response workload: requests travel in compressed
// batch envelopes of the given size and each response as its own
// compressed envelope frame, exactly as the coordinator and
// ServeSession send them. It is a measurement helper (the bench
// harness's wire_bytes_per_cell metric), not a transport: no hello
// bytes are included, since those amortize across a session.
func WireBytesPerCell(reqs []WireRequest, resps []WireResponse, batch int) (float64, error) {
	if len(reqs) == 0 {
		return 0, fmt.Errorf("runtime: wire metering needs at least one request")
	}
	if batch < 1 {
		batch = 1
	}
	var total int64
	frame := func(env wireEnvelope) error {
		b, err := json.Marshal(env)
		if err != nil {
			return err
		}
		n, err := wire.WriteFrame(io.Discard, b)
		total += int64(n)
		return err
	}
	for i := 0; i < len(reqs); i += batch {
		end := min(i+batch, len(reqs))
		if err := frame(wireEnvelope{Reqs: reqs[i:end]}); err != nil {
			return 0, err
		}
	}
	for _, r := range resps {
		if err := frame(wireEnvelope{Resps: []WireResponse{r}}); err != nil {
			return 0, err
		}
	}
	return float64(total) / float64(len(reqs)), nil
}
