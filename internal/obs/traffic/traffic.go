// Package traffic is shed's self-telemetry subsystem: the server
// observes its own traffic with the same sketch machinery it serves.
// The commands the server's obs.Sampler picks at its traffic rate feed
// two consumers here, and a third sees every connection:
//
//   - Track, one sketch's sliding-window hot-key tracker (she.TopK over
//     the sampled insert keys), held by the sketch it describes and
//     served by the HOTKEYS verb and the she_hotkeys_* metric families;
//   - Hub, the MONITOR broadcast: bounded per-subscriber channels of
//     sampled command frames, dropped (and counted) when a consumer lags;
//   - Clients, the per-connection accounting registry (bytes, commands by verb,
//     batch sizes, names), served by CLIENT LIST/KILL/GETNAME/SETNAME
//     and the INFO clients section, and the server's one list of live
//     connections.
//
// Only sampled commands take locks (the hot-key tracker's per-sketch
// mutex, the hub's subscriber list). Connection accounting is always
// on but amortized: bytes are counted per syscall, fast-path command
// counts settle per batch.
//
// Sampling error model: 1-in-N sampling widens the TopK guarantee.
// SHE-CM never undercounts an in-window key, so over the sampled
// stream the no-undercount property holds exactly; scaling back by N
// adds binomial sampling noise with standard deviation sqrt(f·N)
// around a key's true count f. A key needs f >> N sampled-window
// occurrences (i.e. several dozen samples) before its rank is stable;
// HOTKEYS therefore reports estimated raw counts (sampled estimate
// times N) and callers should treat keys with few samples as noise.
package traffic

const (
	// hotKeysK is the hot keys HOTKEYS and she_hotkeys_est_count report
	// per sketch; a track keeps 4·K candidates, the she.TopK bound.
	hotKeysK = 10
	// hotWindow is the hot-key sliding window in sampled inserts; one
	// raw-traffic window is the sampling rate times that.
	hotWindow = 65536
	// monitorRing bounds each MONITOR subscriber's frame buffer; frames
	// past it are dropped and counted.
	monitorRing = 1024
)
