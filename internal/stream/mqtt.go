package stream

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/acyd-lab/shatter/internal/aras"
	"github.com/acyd-lab/shatter/internal/mqtt"
)

// Sentinel day values for transport control frames; real frames always
// carry Day >= 0.
const (
	dayEOF   = -1 // end of the home's stream
	dayProbe = -2 // subscription-registration handshake
)

// probeFrame is the handshake frame a subscriber publishes to its own topic
// to confirm the broker registered the subscription (the broker processes
// frames of one connection in order, so the probe's delivery proves the
// subscription precedes any other publisher's traffic).
func probeFrame() Slot { return Slot{Day: dayProbe} }

// ErrReceiveTimeout is returned when a pipe waits longer than its
// configured ReceiveTimeout for the next frame — the signal that the
// publisher died without delivering its end-of-stream sentinel.
var ErrReceiveTimeout = errors.New("stream: pipe receive timeout")

// PipeOptions configures a pipe's transport behaviour. The zero value
// reproduces the historical defaults: a 5s handshake deadline, unbounded
// receive waits, default dial behaviour, and no injected faults.
type PipeOptions struct {
	// Dial configures the pipe's two broker connections (dial deadline,
	// redial attempts with exponential backoff, per-frame write deadline).
	Dial mqtt.DialOptions
	// ProbeTimeout bounds the subscription-registration handshake; 0
	// defaults to 5s.
	ProbeTimeout time.Duration
	// ReceiveTimeout bounds each wait for the next frame in NextBlock; 0
	// waits forever. Supervised fleets set it so a lost end-of-stream
	// sentinel surfaces as ErrReceiveTimeout instead of a hang.
	ReceiveTimeout time.Duration
	// Faults, when non-nil, applies the day-keyed chaos schedule to the
	// publishing side — the deterministic stand-in for a lossy network.
	Faults *FaultPlan
	// Epoch tags every published frame with the attempt number. A retry
	// reuses its home's topic, and the broker may still be flushing the
	// previous attempt's tail when the new subscription registers; the
	// consumer discards frames from foreign epochs so a dead attempt can
	// never poison its successor's stream (stale data advancing the dedup
	// cursor, or a stale end-of-stream sentinel ending the new attempt).
	Epoch int
	// Blocks is ignored: every pipe moves one binary day-block frame per
	// home-day.
	//
	// Deprecated: day-block framing is the only transport; the field is
	// kept so existing option literals still compile.
	Blocks bool
	// Clock times chaos delay faults; nil uses real wall-clock time.
	Clock Clock
}

// busFrame is the JSON envelope of the pipe's control frames — handshake
// probes, end-of-stream sentinels, and chaos corrupt markers: a Slot header
// plus the publishing attempt's epoch and an integrity flag. Decoding a
// plain Slot from it still works (the extra keys are ignored), which keeps
// the fleet monitor and external subscribers agnostic. Corrupt stands in
// for a failed payload checksum: the day frame is unusable, but the marker
// still names its epoch, so a stale corrupt marker from a dead attempt can
// be discarded instead of failing the current one.
type busFrame struct {
	Slot
	Epoch   int  `json:"epoch"`
	Corrupt bool `json:"corrupt,omitempty"`
	// Final, set only on end-of-stream sentinels, is one past the last
	// stream position the publisher generated (day*SlotsPerDay+slot+1).
	// The consumer compares it against the last position it actually
	// delivered: a mismatch means the stream's tail was lost in transit —
	// the one loss no sequence-gap check can see, because nothing follows
	// it.
	Final int `json:"final,omitempty"`
}

// rxFrame decodes a control frame in place into an existing Slot.
type rxFrame struct {
	*Slot
	Epoch   int  `json:"epoch"`
	Corrupt bool `json:"corrupt"`
	Final   int  `json:"final"`
}

// txRec is one publish queued from a chaos pump's reader to its publisher
// goroutine: a pre-encoded payload (binary block frame or JSON control
// frame), an optional injected delay served before the publish, or a kill
// order that force-closes the publishing connection.
type txRec struct {
	payload []byte
	binary  bool
	delay   time.Duration
	kill    bool
}

// Pipe routes a source through an MQTT broker: a pump goroutine publishes
// one binary frame per home-day on the topic, and NextBlock re-receives them
// from a subscription — the wiring a real deployment has between in-home
// sensor nodes and the supervisory service. Backpressure is per home: the
// subscription buffer is bounded and TCP flow control stalls the pump when
// the consumer lags. Duplicate and stale frames on the bus (retransmissions,
// chaos-injected duplicates) are absorbed by position tracking in
// NextBlock, so the consumer sees each day at most once, in order.
type Pipe struct {
	pub, rcv *mqtt.Client
	ch       <-chan mqtt.Message

	recvTimeout time.Duration
	timer       *time.Timer
	clock       Clock // times chaos delay faults
	epoch       int   // attempt tag; frames from other epochs are discarded
	last        int   // highest delivered day*SlotsPerDay+slot; -1 before any
	scratch     Slot  // NextBlock's decode target for JSON control frames

	mu      sync.Mutex
	pumpErr error
	severed bool

	wg sync.WaitGroup
}

// OpenPipe subscribes to topic on the broker with default options; see
// OpenPipeOptions.
func OpenPipe(broker, topic string, src BlockSource) (*Pipe, error) {
	return OpenPipeOptions(broker, topic, src, PipeOptions{})
}

// OpenPipeOptions subscribes to topic on the broker, confirms registration
// with a loopback probe, and starts pumping src's day-blocks. The returned
// Pipe is the transport-side BlockSource; callers must Close it. Closing the
// pipe does not close src itself.
func OpenPipeOptions(broker, topic string, src BlockSource, opts PipeOptions) (*Pipe, error) {
	probeTimeout := opts.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 5 * time.Second
	}
	rcv, err := mqtt.DialWithOptions(broker, opts.Dial)
	if err != nil {
		return nil, fmt.Errorf("stream: pipe dial: %w", err)
	}
	ch, err := rcv.Subscribe(topic)
	if err != nil {
		rcv.Close()
		return nil, fmt.Errorf("stream: pipe subscribe: %w", err)
	}
	if err := rcv.Publish(topic, probeFrame()); err != nil {
		rcv.Close()
		return nil, fmt.Errorf("stream: pipe probe: %w", err)
	}
	select {
	case <-ch: // probe delivered: subscription is live
	case <-time.After(probeTimeout):
		rcv.Close()
		return nil, fmt.Errorf("stream: pipe probe lost on %s", topic)
	}
	pub, err := mqtt.DialWithOptions(broker, opts.Dial)
	if err != nil {
		rcv.Close()
		return nil, fmt.Errorf("stream: pipe dial: %w", err)
	}
	p := &Pipe{pub: pub, rcv: rcv, ch: ch, recvTimeout: opts.ReceiveTimeout, clock: clockOrReal(opts.Clock), epoch: opts.Epoch, last: -1}
	if opts.Faults != nil {
		// Chaos pumps split into a reader and a publisher joined by a
		// bounded queue, so an injected delay stalls only the publishing
		// side — the reader keeps draining its source, and Close never
		// waits behind a sleeping frame.
		txq := make(chan txRec, 64)
		p.wg.Add(2)
		go p.pumpBlocksChaos(topic, src, opts.Faults, txq)
		go p.publisher(topic, txq)
	} else {
		p.wg.Add(1)
		go p.pumpBlocks(topic, src)
	}
	return p, nil
}

// publisher drains a chaos pump's transmit queue: serve each record's
// injected delay on the pipe's clock, then publish. Records keep queue
// order, so delays stall the bus the way a slow link would without ever
// blocking the reader. After a publish failure (or a kill record) the
// remaining queue is discarded so the reader's sends never block.
func (p *Pipe) publisher(topic string, txq <-chan txRec) {
	defer p.wg.Done()
	failed := false
	for rec := range txq {
		if failed {
			continue
		}
		if rec.delay > 0 {
			p.clock.Sleep(rec.delay)
		}
		if rec.kill {
			// Force-close the publishing connection mid-stream; the
			// consumer sees a dead pipe, not a sentinel.
			p.pub.Close()
			p.publishFailed(fmt.Errorf("%w: connection force-closed", ErrInjectedFault))
			failed = true
			continue
		}
		var err error
		if rec.binary {
			err = p.pub.PublishRaw(topic, rec.payload)
		} else {
			// Pre-marshaled JSON: RawMessage round-trips the bytes as-is.
			err = p.pub.Publish(topic, json.RawMessage(rec.payload))
		}
		if err != nil {
			p.publishFailed(err)
			failed = true
		}
	}
}

// pumpBlocksChaos reads day-blocks and queues binary wire frames under the
// (home, attempt, day)-keyed fault schedule: one roll per home-day, so a
// single block fault exercises the same recovery machinery as a day's worth
// of slot faults at 1/1440th of the frame rate.
func (p *Pipe) pumpBlocksChaos(topic string, src BlockSource, faults *FaultPlan, txq chan<- txRec) {
	defer p.wg.Done()
	defer close(txq)
	var blk DayBlock
	final := 0
	for {
		err := src.NextBlock(&blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			p.setErr(err)
			break
		}
		final = (blk.Day + 1) * aras.SlotsPerDay
		class, stall := faults.RollDay(blk.Day)
		switch class {
		case FaultDrop:
			continue // the whole day frame never reaches the bus
		case FaultCorrupt:
			raw, err := json.Marshal(&busFrame{Slot: Slot{Day: blk.Day}, Epoch: p.epoch, Corrupt: true})
			if err != nil {
				p.setErr(fmt.Errorf("stream: pipe encode: %w", err))
				return
			}
			txq <- txRec{payload: raw}
			continue
		case FaultTruncate:
			// Slice a column pair off in place; the generator's ensure
			// restores the backing storage on the next read.
			truncateBlock(&blk)
		case FaultDisconnect:
			txq <- txRec{kill: true}
			return // no sentinel: the connection died mid-stream
		}
		raw, err := AppendBlockFrame(nil, &blk, p.epoch)
		if err != nil {
			p.setErr(fmt.Errorf("stream: pipe encode day %d: %w", blk.Day, err))
			return
		}
		rec := txRec{payload: raw, binary: true}
		if class == FaultDelay {
			rec.delay = stall
		}
		txq <- rec
		if class == FaultDuplicate {
			txq <- txRec{payload: raw, binary: true}
		}
	}
	raw, err := json.Marshal(&busFrame{Slot: Slot{Day: dayEOF}, Epoch: p.epoch, Final: final})
	if err != nil {
		p.setErr(fmt.Errorf("stream: pipe encode: %w", err))
		return
	}
	txq <- txRec{payload: raw}
}

// pumpBlocks publishes src's day-blocks as binary wire frames — one raw
// publish per home-day through a reused encode buffer, so a warm pump runs
// the whole transport path (encode, frame, fan-out) allocation-free. The
// end-of-stream sentinel stays a JSON frame: sentinels are control traffic,
// and the fleet monitor classifies them without the block decoder.
func (p *Pipe) pumpBlocks(topic string, src BlockSource) {
	defer p.wg.Done()
	var blk DayBlock
	var buf []byte
	final := 0
	for {
		err := src.NextBlock(&blk)
		if err == io.EOF {
			break
		}
		if err != nil {
			p.setErr(err)
			break
		}
		final = (blk.Day + 1) * aras.SlotsPerDay
		buf, err = AppendBlockFrame(buf[:0], &blk, p.epoch)
		if err != nil {
			p.setErr(fmt.Errorf("stream: pipe encode day %d: %w", blk.Day, err))
			break
		}
		if err := p.pub.PublishRaw(topic, buf); err != nil {
			p.publishFailed(err)
			return
		}
	}
	p.pub.Publish(topic, busFrame{Slot: Slot{Day: dayEOF}, Epoch: p.epoch, Final: final})
}

// publishFailed records a dead publisher and tears the receive side down —
// the sentinel cannot be delivered, so the closed subscription channel is
// what unblocks NextBlock, which then surfaces the pump error.
func (p *Pipe) publishFailed(err error) {
	p.setErr(fmt.Errorf("stream: pipe publish: %w", err))
	p.rcv.Close()
}

func (p *Pipe) setErr(err error) {
	p.mu.Lock()
	if p.pumpErr == nil {
		p.pumpErr = err
	}
	p.mu.Unlock()
}

func (p *Pipe) err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pumpErr
}

// receive waits for the next bus message, bounded by the configured
// receive timeout.
func (p *Pipe) receive() (mqtt.Message, bool, error) {
	if p.recvTimeout <= 0 {
		m, ok := <-p.ch
		return m, ok, nil
	}
	if p.timer == nil {
		p.timer = time.NewTimer(p.recvTimeout)
	} else {
		p.timer.Reset(p.recvTimeout)
	}
	select {
	case m, ok := <-p.ch:
		if !p.timer.Stop() {
			select {
			case <-p.timer.C:
			default:
			}
		}
		return m, ok, nil
	case <-p.timer.C:
		return mqtt.Message{}, false, fmt.Errorf("%w after %s", ErrReceiveTimeout, p.recvTimeout)
	}
}

// NextBlock implements BlockSource: binary frames decode into dst, JSON
// frames are the control plane (probes, foreign-epoch stragglers, corrupt
// markers, the end-of-stream sentinel). A same-epoch JSON data frame is a
// protocol violation and errors — the pipe only carries day-blocks. The
// end-of-stream sentinel yields io.EOF (or the pump's error).
func (p *Pipe) NextBlock(dst *DayBlock) error {
	for {
		m, ok, err := p.receive()
		if err != nil {
			return err
		}
		if !ok {
			if err := p.err(); err != nil {
				return err
			}
			return fmt.Errorf("stream: pipe connection lost: %w", io.ErrUnexpectedEOF)
		}
		if IsBlockFrame(m.Payload) {
			epoch, err := DecodeBlockFrame(dst, m.Payload)
			if err != nil {
				return fmt.Errorf("stream: pipe decode: %w", err)
			}
			if epoch != p.epoch {
				continue // a dead attempt's tail still flushing out
			}
			// Dedup at day granularity: delivering day d advances the slot
			// cursor past every slot of d, so retransmissions are absorbed.
			if key := dst.Day*aras.SlotsPerDay + aras.SlotsPerDay - 1; key <= p.last {
				continue
			} else {
				p.last = key
			}
			return nil
		}
		rx := rxFrame{Slot: &p.scratch}
		if err := json.Unmarshal(m.Payload, &rx); err != nil {
			return fmt.Errorf("stream: pipe decode: %w", err)
		}
		if p.scratch.Day == dayProbe {
			continue // stray handshake frame
		}
		if rx.Epoch != p.epoch {
			continue // foreign epoch: data, corrupt, or sentinel — all stale
		}
		if rx.Corrupt {
			return fmt.Errorf("stream: pipe frame (%d,%d) failed integrity check: %w", p.scratch.Day, p.scratch.Index, ErrInjectedFault)
		}
		if p.scratch.Day == dayEOF {
			if err := p.err(); err != nil {
				return err
			}
			if rx.Final > 0 && p.last != rx.Final-1 {
				// The publisher generated day frames past the last one we
				// delivered: the stream's tail was lost in transit.
				return fmt.Errorf("stream: pipe stream ended short of position %d (last delivered %d): frames lost", rx.Final-1, p.last)
			}
			return io.EOF
		}
		return fmt.Errorf("stream: JSON data frame (%d,%d) on a day-block pipe", p.scratch.Day, p.scratch.Index)
	}
}

// Close tears the transport down and waits for the pump. A pipe that was
// Severed skips the wait: its pump may be wedged inside the source, and
// waiting for it would turn a stalled transport into a stalled caller.
func (p *Pipe) Close() error {
	p.pub.Close()
	p.rcv.Close()
	p.mu.Lock()
	severed := p.severed
	p.mu.Unlock()
	if !severed {
		p.wg.Wait()
	}
	return nil
}

// Sever force-closes both bus connections without waiting for the pump —
// the watchdog's lever against a transport that stopped making progress.
// Closing the receiver ends the subscription channel, so a consumer blocked
// in NextBlock unblocks into its failure path immediately; closing the
// publisher makes the pump's next Publish fail so it winds down on its own.
// A pump wedged inside src.NextBlock cannot be interrupted from outside —
// it is abandoned and exits whenever that call returns. After Sever, Close
// no longer waits for the pump.
func (p *Pipe) Sever() {
	p.mu.Lock()
	p.severed = true
	p.mu.Unlock()
	p.pub.Close()
	p.rcv.Close()
}
