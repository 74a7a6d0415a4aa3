package dram

import "fmt"

// CmdKind enumerates DRAM commands the controller can issue.
type CmdKind int

// Command kinds.
const (
	CmdACT CmdKind = iota
	CmdPRE
	CmdRD
	CmdWR
	CmdREF
)

// String names the command kind.
func (k CmdKind) String() string {
	switch k {
	case CmdACT:
		return "ACT"
	case CmdPRE:
		return "PRE"
	case CmdRD:
		return "RD"
	case CmdWR:
		return "WR"
	case CmdREF:
		return "REF"
	default:
		return fmt.Sprintf("CmdKind(%d)", int(k))
	}
}

// IOMode is the chip I/O configuration selected by the mode register
// (Fig. 7). The regular x4 mode serializes one I/O buffer; stride modes
// fetch all four buffers and serialize one lane of each.
type IOMode int

// I/O modes.
const (
	ModeX4      IOMode = iota
	ModeStride0        // Sx4_0: lane 0 of each buffer
	ModeStride1
	ModeStride2
	ModeStride3
)

// IsStride reports whether the mode is one of the Sx4_n stride modes.
func (m IOMode) IsStride() bool { return m >= ModeStride0 }

// String names the I/O mode.
func (m IOMode) String() string {
	switch m {
	case ModeX4:
		return "x4"
	case ModeStride0, ModeStride1, ModeStride2, ModeStride3:
		return fmt.Sprintf("Sx4_%d", int(m-ModeStride0))
	default:
		return fmt.Sprintf("IOMode(%d)", int(m))
	}
}

// Command is one command on the C/A bus.
type Command struct {
	Kind CmdKind
	Rank int
	// Group and Bank are within the rank; Row within the bank; Col is the
	// cacheline-sized column within the row.
	Group, Bank int
	Row         int
	Col         int
	// Mode is the I/O mode a RD/WR requires; issuing it to a rank in
	// another mode charges the mode-register write (tRTR) on the bus.
	Mode IOMode
	// GangRanks marks a fine-granularity strided burst that drives both
	// ranks together to fill the channel (Section 4.4, Fig. 9e).
	GangRanks bool
}

// String renders the command for traces and error messages.
func (c Command) String() string {
	switch c.Kind {
	case CmdACT:
		return fmt.Sprintf("ACT r%d g%d b%d row%d", c.Rank, c.Group, c.Bank, c.Row)
	case CmdPRE:
		return fmt.Sprintf("PRE r%d g%d b%d", c.Rank, c.Group, c.Bank)
	case CmdRD, CmdWR:
		return fmt.Sprintf("%s r%d g%d b%d row%d col%d %s", c.Kind, c.Rank, c.Group, c.Bank, c.Row, c.Col, c.Mode)
	case CmdREF:
		return fmt.Sprintf("REF r%d", c.Rank)
	default:
		return c.Kind.String()
	}
}
