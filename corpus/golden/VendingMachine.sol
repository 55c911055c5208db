// SPDX-License-Identifier: MIT
// Generated from the VendingMachine state machine; do not edit.
pragma solidity ^0.8.19;

contract VendingMachine {
    enum State { Wait, Choose, Deliver, Choose_cancel2__step1 }
    enum TimerPhase { Off, Active, Fired }
    struct Timer { TimerPhase phase; uint256 remaining; }

    State public skeleton;
    uint256 private reentrancyCounter;
    uint256 private coinLedger;
    address payable public ownerAddr;
    address payable public immutable creatorAddr;
    address payable private customer;
    uint256 private paid;
    uint256 private total;

    modifier defended() {
        require(reentrancyCounter <= 1, "reentrancy limit");
        reentrancyCounter += 1;
        _;
        reentrancyCounter -= 1;
        require(heldCoins() == coinLedger, "coin conservation");
    }

    constructor() {
        ownerAddr = payable(msg.sender);
        creatorAddr = payable(msg.sender);
        skeleton = State.Wait;
    }

    function heldCoins() private view returns (uint256 total) {
        total += paid;
        total += total;
        // coins inside maps are accounted for at their move sites
    }

    function pay() external payable defended {
        coinLedger += msg.value;
        if (skeleton == State.Wait) {
            address payable x = payable(msg.sender);
            uint256 c = msg.value;
            customer = x;
            paid += c;
            c = 0;
            require(c == 0, "coins not banked");
            skeleton = State.Choose;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function refund() external payable defended {
        coinLedger += msg.value;
        revert("no transition enabled");
    }

    function order() external defended {
        if (skeleton == State.Choose && payable(msg.sender) == customer) {
            total += paid;
            paid = 0;
            skeleton = State.Deliver;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function item() external defended {
        revert("no transition enabled");
    }

    function cancel() external defended {
        if (skeleton == State.Choose) {
            address payable y = payable(msg.sender);
            skeleton = State.Choose_cancel2__step1;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function tauClosure() private {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            if (skeleton == State.Deliver) {
                {
                    uint256 callValue = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = customer.call{value: callValue}(abi.encodeWithSignature("item()"));
                    require(ok, "message refused");
                }
                customer = payable(address(0));
                skeleton = State.Wait;
                progressed = true;
                continue;
            }
            if (skeleton == State.Choose_cancel2__step1) {
                {
                    uint256 callValue = paid;
                    paid = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = customer.call{value: callValue}(abi.encodeWithSignature("refund()"));
                    require(ok, "message refused");
                }
                customer = payable(address(0));
                skeleton = State.Wait;
                progressed = true;
                continue;
            }
        }
    }

    receive() external payable {
        revert("direct transfers are not part of the protocol");
    }
}
