// SPDX-License-Identifier: MIT
// Generated from the Etherstore state machine; do not edit.
pragma solidity ^0.8.19;

contract Etherstore {
    enum State { AcceptDeposit, WithdrawRequested, ResetBalance, GaveWithdrawal }
    enum TimerPhase { Off, Active, Fired }
    struct Timer { TimerPhase phase; uint256 remaining; }

    State public skeleton;
    uint256 private reentrancyCounter;
    uint256 private coinLedger;
    address payable public ownerAddr;
    address payable public immutable creatorAddr;
    uint256 private vault;
    uint256 private payout;
    address payable private req;
    mapping(address => int256) private bal;
    mapping(address => bool) private balHas;

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
        skeleton = State.AcceptDeposit;
    }

    function heldCoins() private view returns (uint256 total) {
        total += vault;
        total += payout;
        // coins inside maps are accounted for at their move sites
    }

    function deposit() external payable defended {
        coinLedger += msg.value;
        if (skeleton == State.AcceptDeposit) {
            address payable a = payable(msg.sender);
            uint256 c = msg.value;
            bal[a] = (bal[a] + c);
            balHas[a] = true;
            vault += c;
            c = 0;
            require(c == 0, "coins not banked");
            skeleton = State.AcceptDeposit;
            tauClosure();
            return;
        }
        revert("no transition enabled");
    }

    function withdraw() external defended {
        if (skeleton == State.AcceptDeposit) {
            address payable a = payable(msg.sender);
            if ((bal[a] > 0)) {
                req = a;
                skeleton = State.WithdrawRequested;
                tauClosure();
                return;
            }
        }
        revert("no transition enabled");
    }

    function tauClosure() private {
        bool progressed = true;
        while (progressed) {
            progressed = false;
            if (skeleton == State.WithdrawRequested) {
                require(vault >= bal[req], "insufficient coins");
                vault -= bal[req];
                payout += bal[req];
                {
                    uint256 callValue = payout;
                    payout = 0;
                    coinLedger -= callValue;
                    (bool ok, ) = req.call{value: callValue}(abi.encodeWithSignature("return()"));
                    require(ok, "message refused");
                }
                skeleton = State.ResetBalance;
                progressed = true;
                continue;
            }
            if (skeleton == State.ResetBalance) {
                bal[req] = 0;
                balHas[req] = true;
                skeleton = State.GaveWithdrawal;
                progressed = true;
                continue;
            }
            if (skeleton == State.GaveWithdrawal) {
                skeleton = State.AcceptDeposit;
                progressed = true;
                continue;
            }
        }
    }

    receive() external payable {
        revert("direct transfers are not part of the protocol");
    }
}
