package trace

import (
	"testing"

	"repro/internal/testutil"
)

// Every record and entity kind has a name of its own in reports and CSVs,
// never the "?" fallback.
func TestStringNames(t *testing.T) {
	testutil.CheckNames(t, "Kind", "?", map[string]string{
		"KSend": KSend.String(), "KRecv": KRecv.String(), "KCC": KCC.String(),
		"KPick": KPick.String(), "KReassm": KReassm.String(), "KSubAdd": KSubAdd.String(),
		"KSubDel": KSubDel.String(), "KLinkEnq": KLinkEnq.String(), "KLinkDrop": KLinkDrop.String(),
		"KLinkDlv": KLinkDlv.String(), "KPolicyAttach": KPolicyAttach.String(),
		"KPolicyDetach": KPolicyDetach.String(), "KPolicyCmd": KPolicyCmd.String(),
	})
	testutil.CheckNames(t, "EntKind", "?", map[string]string{
		"EntConn": EntConn.String(), "EntFlow": EntFlow.String(),
		"EntLink": EntLink.String(), "EntPolicy": EntPolicy.String(),
	})
}
